#include "perfbench/src/trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_map>

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// 0-based nearest-rank index of percentile q among n sorted samples.
std::size_t RankIndex(std::size_t n, double q) {
  const double rank = std::ceil(q / 100.0 * static_cast<double>(n));
  const std::size_t r = rank < 1.0 ? 1 : static_cast<std::size_t>(rank);
  return std::min(r, n) - 1;
}

}  // namespace

std::optional<double> Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return std::nullopt;
  }
  const std::size_t k = RankIndex(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

std::optional<double> TailPercentile(std::vector<double> samples, double q,
                                     std::size_t min_beyond) {
  if (samples.empty()) {
    return std::nullopt;
  }
  const std::size_t k = RankIndex(samples.size(), q);
  std::sort(samples.begin(), samples.end());
  // Ties with the reported value do not count as beyond it.
  const auto above = std::upper_bound(samples.begin(), samples.end(),
                                      samples[k]);
  if (static_cast<std::size_t>(samples.end() - above) < min_beyond) {
    return std::nullopt;
  }
  return samples[k];
}

std::int64_t SelfTimeNs(const Interval& parent, std::vector<Interval> children) {
  const std::int64_t total = std::max<std::int64_t>(
      0, parent.end_ns - parent.start_ns);
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start_ns < b.start_ns;
            });
  std::int64_t covered = 0;
  std::int64_t cursor = parent.start_ns;
  for (const Interval& c : children) {
    const std::int64_t lo = std::max(c.start_ns, cursor);
    const std::int64_t hi = std::min(c.end_ns, parent.end_ns);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return total - covered;
}

ApiContext*& CurrentApiContext() {
  static thread_local ApiContext* current = nullptr;
  return current;
}

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

bool Tracer::Admit(std::size_t size, std::size_t cap) {
  if (dump_.full_at_ns != 0) {
    return false;
  }
  if (size < cap) {
    return true;
  }
  dump_.full_at_ns = NowNs();
  on_.store(false, std::memory_order_relaxed);
  return false;
}

void Tracer::RecordHop(std::uint32_t vm, Hop hop, std::uint64_t call_id,
                       std::int64_t t_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (Admit(dump_.hops.size(), kMaxHops)) {
    dump_.hops.push_back(HopEvent{vm, hop, call_id, t_ns});
  }
}

void Tracer::RecordApi(const ApiSpan& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (Admit(dump_.apis.size(), kMaxApis)) {
    dump_.apis.push_back(span);
  }
}

Tracer::Dump Tracer::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  Dump out = std::move(dump_);
  dump_ = Dump{};
  return out;
}

void AssembleLayers(const Tracer::Dump& dump, Assembled* out) {
  struct Hops {
    std::int64_t t[kHopCount] = {0, 0, 0, 0, 0, 0};
  };
  auto key = [](std::uint32_t vm, std::uint64_t id) {
    return (static_cast<std::uint64_t>(vm) << 48) ^ id;
  };
  std::unordered_map<std::uint64_t, Hops> calls;
  calls.reserve(dump.hops.size() / 4 + 1);
  for (const HopEvent& e : dump.hops) {
    std::int64_t& slot = calls[key(e.vm, e.call_id)].t[static_cast<int>(e.hop)];
    if (slot == 0) {  // keep the first sighting (a retry re-sends the id)
      slot = e.t_ns;
    }
  }

  const auto us = [](std::int64_t ns) { return static_cast<double>(ns) / 1e3; };
  for (const ApiSpan& api : dump.apis) {
    LayerSamples* targets[2] = {&out->all,
                                api.null_query ? &out->nulls : nullptr};
    for (LayerSamples* s : targets) {
      if (s == nullptr) {
        continue;
      }
      ++s->api_calls;
      s->messages += api.messages;
    }
    if (api.first_call_id == 0) {
      continue;
    }
    auto it = calls.find(key(api.vm, api.first_call_id));
    if (it == calls.end()) {
      ++out->discarded_calls;
      continue;
    }
    const std::int64_t* t = it->second.t;
    const std::int64_t send = t[0], hrx = t[1], es = t[2], ee = t[3],
                       hsend = t[4], grx = t[5];
    // An async call that the host had not run yet has no host hops; any
    // other gap, or hops out of layer order, means a broken pairing.
    const bool host_seen = hrx != 0 && es != 0 && ee != 0;
    const bool host_none = hrx == 0 && es == 0 && ee == 0;
    const bool sync = host_seen && hsend != 0 && grx != 0 &&
                      grx <= api.exit_ns;
    const bool ordered =
        send != 0 && api.entry_ns <= send &&
        (!host_seen || (send <= hrx && hrx <= es && es <= ee)) &&
        (!sync || (ee <= hsend && hsend <= grx));
    if (!ordered || !(host_seen || host_none)) {
      ++out->discarded_calls;
      continue;
    }
    for (LayerSamples* s : targets) {
      if (s == nullptr) {
        continue;
      }
      s->marshal.push_back(us(send - api.entry_ns));
      if (host_seen) {
        s->up.push_back(us(hrx - send));
        s->queue.push_back(us(es - hrx));
        s->exec.push_back(us(ee - es));
        s->exec_total_us += us(ee - es);
      }
      if (sync) {
        s->rreply.push_back(us(hsend - ee));
        s->down.push_back(us(grx - hsend));
        s->reply.push_back(us(api.exit_ns - grx));
        s->forward.push_back(us(SelfTimeNs({send, grx}, {{es, ee}})));
      }
    }
  }
}

}  // namespace perfbench
