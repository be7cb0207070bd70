#include "par/round_loop.h"

#include <barrier>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "util/check.h"

namespace kcore::par {

namespace {

/// Shared control block: the stop flag is plain (the barrier's phase
/// ordering publishes it), the error slot is mutex-guarded because any
/// worker may fault at any point within a round.
struct LoopState {
  const RoundBody* body = nullptr;
  const RoundCompletion* completion = nullptr;
  bool stop = false;
  std::mutex error_mutex;
  std::exception_ptr first_error;

  void capture_error() noexcept {
    const std::lock_guard<std::mutex> lock(error_mutex);
    if (!first_error) first_error = std::current_exception();
  }

  [[nodiscard]] bool failed() noexcept {
    const std::lock_guard<std::mutex> lock(error_mutex);
    return static_cast<bool>(first_error);
  }
};

}  // namespace

void run_round_loop(unsigned workers, const RoundBody& body,
                    const RoundCompletion& completion,
                    obs::Recorder* recorder) {
  KCORE_CHECK_MSG(workers >= 1, "round loop needs at least one worker");
  KCORE_CHECK_MSG(body != nullptr && completion != nullptr,
                  "round loop needs a body and a completion step");

  // Tracing decorator: per-worker "round" spans plus a worker-0
  // "round.completion" span per barrier phase (see round_loop.h for why
  // that cross-thread record is race-free), then recurse without the
  // recorder so the loop logic below stays single-copy.
  if (recorder != nullptr) {
    const RoundBody traced_body = [&recorder, &body](unsigned w,
                                                     std::uint64_t round) {
      OBS_SPAN(recorder->worker(w), "round");
      body(w, round);
    };
    const RoundCompletion traced_completion =
        [&recorder, &completion](std::uint64_t round) {
          OBS_SPAN(recorder->worker(0), "round.completion");
          return completion(round);
        };
    run_round_loop(workers, traced_body, traced_completion, nullptr);
    return;
  }

  if (workers == 1) {
    for (std::uint64_t round = 1;; ++round) {
      body(0, round);
      if (!completion(round)) return;
    }
  }

  LoopState state;
  state.body = &body;
  state.completion = &completion;

  std::uint64_t round_counter = 0;  // owned by the completion phase
  auto on_phase_complete = [&state, &round_counter]() noexcept {
    if (state.stop) return;  // winding down after a failure
    ++round_counter;
    if (state.failed()) {
      state.stop = true;
      return;
    }
    try {
      if (!(*state.completion)(round_counter)) state.stop = true;
    } catch (...) {
      state.capture_error();
      state.stop = true;
    }
  };
  std::barrier barrier(static_cast<std::ptrdiff_t>(workers),
                       on_phase_complete);

  auto worker_loop = [&state, &barrier](unsigned worker) {
    for (std::uint64_t round = 1;; ++round) {
      try {
        (*state.body)(worker, round);
      } catch (...) {
        state.capture_error();
      }
      barrier.arrive_and_wait();
      // `stop` was written by the completion step of this very phase;
      // the barrier sequences that write before this read.
      if (state.stop) return;
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) {
    pool.emplace_back(worker_loop, w);
  }
  worker_loop(0);
  for (auto& thread : pool) thread.join();

  if (state.first_error) std::rethrow_exception(state.first_error);
}

}  // namespace kcore::par
