#include "gpusim/executor.h"

#include <algorithm>

namespace simtomp::gpusim {

namespace {
// Set while a pool helper is executing job indices; nested parallelFor
// calls from inside a worker run inline instead of deadlocking on the
// pool's own capacity.
thread_local bool g_inside_pool_worker = false;
}  // namespace

BlockExecutor& BlockExecutor::global() {
  static BlockExecutor pool;
  return pool;
}

BlockExecutor::~BlockExecutor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : helpers_) t.join();
}

size_t BlockExecutor::helperCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return helpers_.size();
}

void BlockExecutor::ensureHelpersLocked(uint32_t desired) {
  desired = std::min(desired, kMaxHelpers);
  while (helpers_.size() < desired) {
    helpers_.emplace_back([this] { helperLoop(); });
  }
}

BlockExecutor::Job* BlockExecutor::claimableJobLocked() {
  for (Job* job : jobs_) {
    if (job->next < job->count && job->helpers < job->maxHelpers) return job;
  }
  return nullptr;
}

void BlockExecutor::runJob(Job& job, std::unique_lock<std::mutex>& lock) {
  while (job.next < job.count) {
    const uint32_t index = job.next++;
    lock.unlock();
    (*job.fn)(index);
    lock.lock();
    ++job.done;
  }
  // Whether or not this thread finished the last index, the caller may
  // be waiting on either completion or helper detachment.
  done_cv_.notify_all();
}

void BlockExecutor::helperLoop() {
  g_inside_pool_worker = true;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock,
                  [this] { return shutdown_ || claimableJobLocked() != nullptr; });
    if (shutdown_) return;
    Job* job = claimableJobLocked();
    if (job == nullptr) continue;
    ++job->helpers;
    runJob(*job, lock);
    --job->helpers;
    done_cv_.notify_all();
  }
}

void BlockExecutor::parallelFor(uint32_t count, uint32_t workers,
                                const std::function<void(uint32_t)>& fn) {
  workers = std::min(workers, count);
  if (count == 0) return;
  if (workers <= 1 || g_inside_pool_worker) {
    for (uint32_t i = 0; i < count; ++i) fn(i);
    return;
  }

  Job job;
  job.fn = &fn;
  job.count = count;
  job.maxHelpers = workers - 1;  // the caller participates too

  std::unique_lock<std::mutex> lock(mutex_);
  ensureHelpersLocked(job.maxHelpers);
  jobs_.push_back(&job);
  work_cv_.notify_all();
  runJob(job, lock);
  // All indices are claimed; wait until every claimed one has finished
  // and every helper has detached from the job before it leaves scope.
  done_cv_.wait(lock, [&job] { return job.done == job.count && job.helpers == 0; });
  jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
}

}  // namespace simtomp::gpusim
