// Cooperative cancellation for query execution (docs/ARCHITECTURE.md,
// "Streaming & cancellation").
//
// A CancellationSource owns a shared cancel flag; CancellationTokens are
// cheap copyable views of it, threaded through ExecOptions into the matcher
// tick check. Cancellation is
// *cooperative*: Cancel() never interrupts anything by force — running code
// polls cancelled() at its existing amortized check points and unwinds, so
// a cancelled query stops within one tick window (~64 recursion steps)
// exactly like a deadline expiry, reporting ExecStats::cancelled.
//
// Cost model mirrors util/fault_injector.h: the not-cancelled fast path of
// cancelled() is one relaxed atomic load per linked state (plus a null
// check for the default token, which can never be cancelled). Relaxed
// ordering suffices — the flag carries no payload, it only tells the
// observer to stop; every result handoff has its own synchronization.
//
// Sources can be *linked*: CancellationSource(parent_token) creates a
// source whose tokens observe the parent chain too, so a service request
// can merge an external client token with its own internal abort signal
// (sink abort, orphaned-flight retirement) without callbacks or extra
// threads. Cancel() notifies waiters blocked in WaitFor(); a cancellation
// arriving through a *parent* link is detected by bounded polling instead
// (WaitFor slices its sleep), trading a few milliseconds of wake-up latency
// for a completely passive design.
//
// Thread-safety: all members of both classes may be called concurrently
// from any thread. Cancellation is sticky — there is no reset; create a new
// source per request.

#ifndef AMBER_UTIL_CANCELLATION_H_
#define AMBER_UTIL_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

namespace amber {

class CancellationSource;

/// \brief A view of a cancellation flag. See file comment.
///
/// The default-constructed token is never cancelled and costs one pointer
/// compare to check — ExecOptions embeds one by value so non-cancellable
/// executions pay (almost) nothing.
class CancellationToken {
 public:
  /// Never cancelled.
  CancellationToken() = default;

  /// True once the owning source (or any linked parent) was cancelled.
  bool cancelled() const {
    for (const State* s = state_.get(); s != nullptr; s = s->parent.get()) {
      if (s->flag.load(std::memory_order_relaxed)) return true;
    }
    return false;
  }

  /// True when this token is connected to a source at all (a token that
  /// can never fire lets callers skip polling entirely).
  bool can_be_cancelled() const { return state_ != nullptr; }

  /// Sleeps up to `timeout`, waking early on cancellation; returns the
  /// final cancelled() state. Cancellations of the own source wake the
  /// wait immediately; parent-link cancellations are noticed within one
  /// poll slice (a few ms). The interruptible backoff sleep of the serving
  /// retry loop.
  bool WaitFor(std::chrono::milliseconds timeout) const {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    if (state_ == nullptr) {
      std::this_thread::sleep_for(timeout);
      return false;
    }
    std::unique_lock<std::mutex> lock(state_->mu);
    while (!cancelled()) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) break;
      auto slice = deadline - now;
      if (state_->parent != nullptr) {
        // Parent cancellations don't notify our cv; bound the slice so
        // they are noticed promptly.
        slice = std::min<std::chrono::steady_clock::duration>(
            slice, std::chrono::milliseconds(2));
      }
      state_->cv.wait_for(lock, slice);
    }
    return cancelled();
  }

 private:
  friend class CancellationSource;

  struct State {
    std::atomic<bool> flag{false};
    std::mutex mu;
    std::condition_variable cv;
    /// Immutable after construction: the linked parent chain.
    std::shared_ptr<State> parent;
  };

  explicit CancellationToken(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

/// \brief Owns a cancellation flag and hands out tokens. See file comment.
class CancellationSource {
 public:
  CancellationSource() : state_(std::make_shared<CancellationToken::State>()) {}

  /// A source whose tokens also observe `parent` (merged cancellation):
  /// cancelled() fires when either this source or the parent's chain does.
  explicit CancellationSource(const CancellationToken& parent)
      : CancellationSource() {
    state_->parent = parent.state_;
  }

  /// Trips the flag (sticky) and wakes every WaitFor() on tokens of THIS
  /// source. Idempotent; callable from any thread.
  void Cancel() {
    {
      // The store is inside the mutex so a WaitFor between its predicate
      // check and its wait cannot miss the notification.
      std::lock_guard<std::mutex> lock(state_->mu);
      state_->flag.store(true, std::memory_order_relaxed);
    }
    state_->cv.notify_all();
  }

  /// True once Cancel() was called (or a linked parent was cancelled).
  bool cancelled() const { return token().cancelled(); }

  /// A token observing this source (and its parent link).
  CancellationToken token() const { return CancellationToken(state_); }

 private:
  std::shared_ptr<CancellationToken::State> state_;
};

}  // namespace amber

#endif  // AMBER_UTIL_CANCELLATION_H_
