// Span recording for the traced run, plus the statistics helpers every
// metric goes through. All timestamps are steady_clock nanoseconds taken in
// the benchmark's own wrappers around the AvA modules' public entry points
// (API tables, transports, server handlers); nothing inside the program is
// instrumented.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

namespace perfbench {

std::int64_t NowNs();

// Nearest-rank percentile (q in [0, 100]); nullopt for no samples.
std::optional<double> Percentile(std::vector<double> samples, double q);

// A tail percentile, reported only when at least `min_beyond` samples lie
// strictly above the chosen rank; otherwise the run is too short to say.
std::optional<double> TailPercentile(std::vector<double> samples, double q,
                                     std::size_t min_beyond = 10);

struct Interval {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// A span's self time: its duration minus the part of it covered by the
// union of its children (clipped to the parent, overlaps counted once).
std::int64_t SelfTimeNs(const Interval& parent, std::vector<Interval> children);

// Layer boundaries a forwarded call crosses, in order.
enum class Hop : std::uint8_t {
  kGuestSend,  // guest transport Send entered
  kHostRecv,   // host transport handed the frame to the router
  kExecStart,  // server handler entered
  kExecEnd,    // server handler returned
  kHostSend,   // host transport Send entered with the reply
  kGuestRecv,  // guest transport returned the reply
};
inline constexpr int kHopCount = 6;

struct HopEvent {
  std::uint32_t vm = 0;
  Hop hop = Hop::kGuestSend;
  std::uint64_t call_id = 0;
  std::int64_t t_ns = 0;
};

// One API call as the application saw it.
struct ApiSpan {
  std::uint32_t vm = 0;
  bool null_query = false;
  std::int64_t entry_ns = 0;
  std::int64_t exit_ns = 0;
  std::uint64_t first_call_id = 0;  // 0 = the call sent no message
  std::uint32_t messages = 0;
};

// The API call the current thread is inside, set by the API table wrappers
// so the guest transport tap can attribute the messages it sends to it.
struct ApiContext {
  std::uint64_t first_call_id = 0;
  std::uint32_t messages = 0;
};
ApiContext*& CurrentApiContext();

inline void NoteGuestSend(std::uint64_t call_id) {
  if (ApiContext* ctx = CurrentApiContext(); ctx != nullptr) {
    if (ctx->first_call_id == 0) {
      ctx->first_call_id = call_id;
    }
    ++ctx->messages;
  }
}

// Process-wide span store. Recording happens only while on(). The store is
// bounded: the first span that does not fit turns recording off and marks
// the time, so a dump holds the calls that returned before full_at_ns.
// Taking a dump after each traced pass gives every pass its own window.
class Tracer {
 public:
  static Tracer& Get();

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

  void RecordHop(std::uint32_t vm, Hop hop, std::uint64_t call_id,
                 std::int64_t t_ns);
  void RecordApi(const ApiSpan& span);

  struct Dump {
    std::vector<HopEvent> hops;
    std::vector<ApiSpan> apis;
    std::int64_t full_at_ns = 0;  // 0 = the store never filled
  };
  // Moves out everything recorded so far and empties the store.
  Dump Take();

 private:
  static constexpr std::size_t kMaxHops = 1u << 18;
  static constexpr std::size_t kMaxApis = 1u << 15;

  // Whether one more entry fits a store holding `size` of `cap`; the first
  // refusal marks the store full. Called with mutex_ held.
  bool Admit(std::size_t size, std::size_t cap);

  std::atomic<bool> on_{false};
  std::mutex mutex_;
  Dump dump_;
};

// Per-layer samples (microseconds) assembled from a Dump: each forwarded
// call's hop timestamps, joined by (vm, call id), split at the boundaries.
struct LayerSamples {
  std::vector<double> marshal;  // API entry -> first guest Send
  std::vector<double> up;       // guest Send -> host receive
  std::vector<double> queue;    // host receive -> handler entry
  std::vector<double> exec;     // handler duration
  std::vector<double> rreply;   // handler return -> host Send (reply)
  std::vector<double> down;     // host Send -> guest receive
  std::vector<double> reply;    // guest receive -> API return
  std::vector<double> forward;  // sync round trip minus handler self time
  double exec_total_us = 0.0;
  std::uint64_t api_calls = 0;
  std::uint64_t messages = 0;
};

struct Assembled {
  LayerSamples all;    // every traced API call
  LayerSamples nulls;  // only the device-free null queries
  // Calls left out because their hops were partly missing or out of layer
  // order, as when an execution is paired with the wrong call id.
  std::uint64_t discarded_calls = 0;
};

// Adds the calls of one dump to `out`.
void AssembleLayers(const Tracer::Dump& dump, Assembled* out);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
