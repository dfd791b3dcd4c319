#include "perfbench/src/workloads.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/src/api_wrap.h"
#include "perfbench/src/stack.h"
#include "perfbench/src/trace.h"
#include "src/common/rng.h"
#include "src/vcl/silo.h"
#include "src/workloads/vcl_workloads.h"
#include "vcl_gen.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using ava_gen_vcl::VclApi;

// Set-ups before every pass of an untraced run, besides the one that builds
// the measured deployment; setup_s is the median of all of them.
constexpr int kSetupsPerPass = 3;
// Passes per run. A run's figure is a quartile of the per-pass figures,
// with twenty passes the fifth best, so up to fifteen passes the host
// slowed do not move it.
constexpr int kPasses = 20;

ava::Status VclOk(vcl_int rc, const char* what) {
  return rc == VCL_SUCCESS
             ? ava::OkStatus()
             : ava::Internal(std::string(what) + " failed: " +
                             std::to_string(rc));
}

// One guest VM's wrapped API table and its counters, at a stable address.
struct Tables {
  ApiCounters counters;
  VclApi vcl;
};

// One guest thread's program, bound to its VM's API table.
class Client {
 public:
  explicit Client(const Tables* tables) : t_(tables) {}
  virtual ~Client() = default;

  // Opens the VCL session; subclasses add programs and buffers.
  virtual ava::Status Setup() {
    expected_units_ = vcl::DefaultSilo().config().compute_units;
    AVA_ASSIGN_OR_RETURN(workloads::VclSession s,
                         workloads::VclSession::Open(t_->vcl));
    session_ = std::make_unique<workloads::VclSession>(std::move(s));
    return ava::OkStatus();
  }
  // Untimed: draws the next op's inputs.
  virtual void Prepare() {}
  // Timed: the op's API calls.
  virtual ava::Status Op() = 0;
  // Untimed: validates the op's outputs.
  virtual ava::Status Check() { return ava::OkStatus(); }
  // The last step of set-up: one op.
  ava::Status WarmUp() {
    Prepare();
    AVA_RETURN_IF_ERROR(Op());
    return Check();
  }
  // A background client loads the system but is not measured.
  virtual bool background() const { return false; }
  // Writes that re-sent a payload eligible for the transfer cache, and the
  // 1 MiB transfers one op makes.
  virtual std::uint64_t repeat_writes() const { return 0; }
  virtual int transfers_per_op() const { return 0; }

  // The null call: a device-free synchronous query, validated.
  ava::Status Null() {
    vcl_uint units = 0;
    NullQueryScope scope;
    AVA_RETURN_IF_ERROR(VclOk(
        t_->vcl.vclGetDeviceInfo(session_->device(),
                                 VCL_DEVICE_MAX_COMPUTE_UNITS, sizeof(units),
                                 &units, nullptr),
        "null query"));
    return units == expected_units_
               ? ava::OkStatus()
               : ava::Internal("null query: wrong compute-unit count");
  }

 protected:
  const Tables* t_;
  std::unique_ptr<workloads::VclSession> session_;
  vcl_uint expected_units_ = 0;
};

constexpr const char* kAxpbSource = R"(
__kernel void axpb(__global const int* in, __global int* out, int a, int b) {
  int i = get_global_id(0);
  out[i] = in[i] * a + b;
}
)";
constexpr std::size_t kChattyItems = 256;  // 1 KiB of int32 each way

// chatty: a non-blocking 1 KiB write, four kernel arguments, a 256-item
// launch and a blocking 1 KiB read checked against the host result.
class ChattyClient : public Client {
 public:
  ChattyClient(const Tables* tables, std::uint64_t seed)
      : Client(tables), rng_(seed) {}

  ava::Status Setup() override {
    AVA_RETURN_IF_ERROR(Client::Setup());
    AVA_ASSIGN_OR_RETURN(kernel_, session_->BuildKernel(kAxpbSource, "axpb"));
    AVA_ASSIGN_OR_RETURN(d_in_, session_->MakeBuffer(sizeof(in_)));
    AVA_ASSIGN_OR_RETURN(d_out_, session_->MakeBuffer(sizeof(out_)));
    return ava::OkStatus();
  }
  void Prepare() override {
    for (std::int32_t& v : in_) {
      v = static_cast<std::int32_t>(rng_.NextInRange(-1000, 1000));
    }
    a_ = static_cast<std::int32_t>(rng_.NextInRange(-50, 50));
    b_ = static_cast<std::int32_t>(rng_.NextInRange(-1000, 1000));
    out_.fill(0x5a5a5a5a);  // a skipped read cannot pass the check
  }
  ava::Status Op() override {
    const VclApi& api = t_->vcl;
    const vcl_command_queue q = session_->queue();
    AVA_RETURN_IF_ERROR(VclOk(
        api.vclEnqueueWriteBuffer(q, d_in_, VCL_FALSE, 0, sizeof(in_),
                                  in_.data(), 0, nullptr, nullptr),
        "write"));
    AVA_RETURN_IF_ERROR(
        VclOk(api.vclSetKernelArgBuffer(kernel_, 0, d_in_), "arg 0"));
    AVA_RETURN_IF_ERROR(
        VclOk(api.vclSetKernelArgBuffer(kernel_, 1, d_out_), "arg 1"));
    AVA_RETURN_IF_ERROR(VclOk(
        api.vclSetKernelArgScalar(kernel_, 2, sizeof(a_), &a_), "arg 2"));
    AVA_RETURN_IF_ERROR(VclOk(
        api.vclSetKernelArgScalar(kernel_, 3, sizeof(b_), &b_), "arg 3"));
    const std::size_t global = kChattyItems;
    AVA_RETURN_IF_ERROR(VclOk(
        api.vclEnqueueNDRangeKernel(q, kernel_, 1, nullptr, &global, nullptr,
                                    0, nullptr, nullptr),
        "launch"));
    return VclOk(api.vclEnqueueReadBuffer(q, d_out_, VCL_TRUE, 0,
                                          sizeof(out_), out_.data(), 0,
                                          nullptr, nullptr),
                 "read");
  }
  ava::Status Check() override {
    for (std::size_t i = 0; i < kChattyItems; ++i) {
      if (out_[i] != in_[i] * a_ + b_) {
        return ava::Internal("chatty: wrong result at " + std::to_string(i));
      }
    }
    return ava::OkStatus();
  }

 private:
  ava::Rng rng_;
  vcl_kernel kernel_ = nullptr;
  vcl_mem d_in_ = nullptr;
  vcl_mem d_out_ = nullptr;
  std::array<std::int32_t, kChattyItems> in_{};
  std::array<std::int32_t, kChattyItems> out_{};
  std::int32_t a_ = 0;
  std::int32_t b_ = 0;
};

constexpr std::size_t kBulkBytes = 1u << 20;
constexpr int kBulkBuffers = 8;
constexpr int kHotPayloads = 4;  // 4 MiB: fits the default 64 MiB cache

// bulk: one op is a round of three blocking 1 MiB transfers over eight
// device buffers: a fresh-content write, a write re-sending one payload of
// a hot set, and a read checked against that buffer's last write. Seeded
// buffers, payloads and content. Rounds keep the op latency unimodal; a
// random mix of the three made its median jump between transfer kinds.
class BulkClient : public Client {
 public:
  BulkClient(const Tables* tables, std::uint64_t seed)
      : Client(tables), rng_(seed) {}

  ava::Status Setup() override {
    AVA_RETURN_IF_ERROR(Client::Setup());
    pool_.resize(2 * kBulkBytes / 8);
    for (std::uint64_t& w : pool_) {
      w = rng_.NextU64();
    }
    for (auto& hot : hot_) {
      hot.resize(kBulkBytes / 8);
      for (std::uint64_t& w : hot) {
        w = rng_.NextU64();
      }
    }
    scratch_.resize(kBulkBytes);
    for (int b = 0; b < kBulkBuffers; ++b) {
      stage_[b].resize(kBulkBytes);
      AVA_ASSIGN_OR_RETURN(buffers_[b], session_->MakeBuffer(kBulkBytes));
      DrawFresh(b);
      AVA_RETURN_IF_ERROR(session_->Write(buffers_[b], stage_[b].data(),
                                          kBulkBytes));
    }
    return ava::OkStatus();
  }
  void Prepare() override {
    fresh_ = Pick();
    DrawFresh(fresh_);
    repeat_ = Pick();
    expected_[repeat_] = reinterpret_cast<const std::uint8_t*>(
        hot_[rng_.NextBelow(kHotPayloads)].data());
    read_ = Pick();
    std::memset(scratch_.data(), 0xa5, scratch_.size());
  }
  ava::Status Op() override {
    AVA_RETURN_IF_ERROR(
        session_->Write(buffers_[fresh_], stage_[fresh_].data(), kBulkBytes));
    AVA_RETURN_IF_ERROR(
        session_->Write(buffers_[repeat_], expected_[repeat_], kBulkBytes));
    ++repeats_;
    return session_->Read(buffers_[read_], scratch_.data(), kBulkBytes);
  }
  ava::Status Check() override {
    return std::memcmp(scratch_.data(), expected_[read_], kBulkBytes) == 0
               ? ava::OkStatus()
               : ava::Internal("bulk: read-back differs from the last write");
  }
  std::uint64_t repeat_writes() const override { return repeats_; }
  int transfers_per_op() const override { return 3; }

 private:
  int Pick() { return static_cast<int>(rng_.NextBelow(kBulkBuffers)); }

  // Fresh content: a random slice of the pool, stamped with a serial number
  // in its first bytes so no two fresh payloads share a prefix.
  void DrawFresh(int b) {
    const std::size_t offset = 8 * rng_.NextBelow(kBulkBytes / 8);
    std::uint8_t* stage = stage_[b].data();
    std::memcpy(stage,
                reinterpret_cast<const std::uint8_t*>(pool_.data()) + offset,
                kBulkBytes);
    ++serial_;
    std::memcpy(stage, &serial_, sizeof(serial_));
    expected_[b] = stage;
  }

  ava::Rng rng_;
  std::vector<std::uint64_t> pool_;
  std::array<std::vector<std::uint64_t>, kHotPayloads> hot_;
  std::array<std::vector<std::uint8_t>, kBulkBuffers> stage_;
  std::array<vcl_mem, kBulkBuffers> buffers_{};
  std::array<const std::uint8_t*, kBulkBuffers> expected_{};
  std::vector<std::uint8_t> scratch_;
  int fresh_ = 0, repeat_ = 0, read_ = 0;
  std::uint64_t serial_ = 0;
  std::uint64_t repeats_ = 0;
};

constexpr const char* kSpinSource = R"(
__kernel void spin(__global int* out, int iters) {
  int i = get_global_id(0);
  int acc = i;
  for (int k = 0; k < iters; k++) {
    acc = (acc * 31 + k) % 65521;
  }
  out[i] = acc;
}
)";
constexpr std::size_t kSpinItems = 16;
constexpr std::int32_t kSpinIters = 200;

// The device-heavy tenant: a spin kernel, then Finish, then a 64-byte
// read-back checked against the host result.
class SpinClient : public Client {
 public:
  using Client::Client;

  ava::Status Setup() override {
    AVA_RETURN_IF_ERROR(Client::Setup());
    AVA_ASSIGN_OR_RETURN(kernel_, session_->BuildKernel(kSpinSource, "spin"));
    AVA_ASSIGN_OR_RETURN(d_out_, session_->MakeBuffer(sizeof(out_)));
    for (std::size_t i = 0; i < kSpinItems; ++i) {
      std::int32_t acc = static_cast<std::int32_t>(i);
      for (std::int32_t k = 0; k < kSpinIters; ++k) {
        acc = (acc * 31 + k) % 65521;
      }
      want_[i] = acc;
    }
    return ava::OkStatus();
  }
  bool background() const override { return true; }
  void Prepare() override { out_.fill(-1); }
  ava::Status Op() override {
    const VclApi& api = t_->vcl;
    AVA_RETURN_IF_ERROR(
        VclOk(api.vclSetKernelArgBuffer(kernel_, 0, d_out_), "spin arg 0"));
    AVA_RETURN_IF_ERROR(VclOk(api.vclSetKernelArgScalar(
                                  kernel_, 1, sizeof(kSpinIters), &kSpinIters),
                              "spin arg 1"));
    AVA_RETURN_IF_ERROR(session_->Launch1D(kernel_, kSpinItems));
    AVA_RETURN_IF_ERROR(session_->Finish());
    return session_->Read(d_out_, out_.data(), sizeof(out_));
  }
  ava::Status Check() override {
    return out_ == want_ ? ava::OkStatus()
                         : ava::Internal("spin: wrong kernel result");
  }

 private:
  vcl_kernel kernel_ = nullptr;
  vcl_mem d_out_ = nullptr;
  std::array<std::int32_t, kSpinItems> out_{};
  std::array<std::int32_t, kSpinItems> want_{};
};

struct Spec {
  int threads = 1;       // guest threads, one VM each
  int nulls_per_op = 1;  // null calls after every measured op
  std::function<std::unique_ptr<Client>(int index, const Tables* tables,
                                        std::uint64_t seed)>
      make;
};

Spec SpecFor(const std::string& name) {
  Spec spec;
  if (name == "chatty") {
    spec.make = [](int, const Tables* t, std::uint64_t seed) {
      return std::make_unique<ChattyClient>(t, seed);
    };
  } else if (name == "bulk") {
    // Two VMs. With one, every hand-off woke an idle vCPU, whose cost
    // changed with the host's state and moved the figures by up to 80 %
    // between runs. With four, guests, router and server threads
    // outnumbered the CPUs and the op p50 spread up to 0.47 over five runs.
    spec.threads = 2;
    spec.make = [](int, const Tables* t, std::uint64_t seed) {
      return std::make_unique<BulkClient>(t, seed);
    };
  } else if (name == "tenants") {
    // The chatty tenants wait behind the neighbour's kernels, so they make
    // few steps; two null calls per step keep the per-pass tail resolvable.
    spec.threads = 4;
    spec.nulls_per_op = 2;
    spec.make = [](int index, const Tables* t,
                   std::uint64_t seed) -> std::unique_ptr<Client> {
      if (index == 3) {
        return std::make_unique<SpinClient>(t);
      }
      return std::make_unique<ChattyClient>(t, seed);
    };
  }
  return spec;
}

// A deployment and one client per VM; clients go before the stack their
// calls travel through, and before the tables they hold.
struct Guests {
  std::unique_ptr<Deployment> deployment;
  std::vector<std::unique_ptr<Tables>> tables;
  std::vector<std::unique_ptr<Client>> clients;
  ~Guests() { clients.clear(); }
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

std::mutex report_mutex;
int reports_left = 8;

void CountOutcome(const ava::Status& status, Tally* tally) {
  ++tally->attempted;
  if (status.ok()) {
    return;
  }
  ++tally->failed;
  std::lock_guard<std::mutex> lock(report_mutex);
  if (reports_left > 0) {
    --reports_left;
    std::fprintf(stderr, "perfbench: op failed: %s\n",
                 status.ToString().c_str());
  }
}

// Set-up as a user pays it: router start, VM attach, session open, program
// builds, buffers, one warm-up op and one null call per guest.
ava::Result<std::unique_ptr<Guests>> SetUp(const RunOptions& options,
                                          const Spec& spec, bool taps,
                                          Tally* tally) {
  auto guests = std::make_unique<Guests>();
  AVA_ASSIGN_OR_RETURN(guests->deployment,
                       Deployment::Create(spec.threads, taps));
  for (int i = 0; i < spec.threads; ++i) {
    const GuestVm& vm =
        *guests->deployment->vms()[static_cast<std::size_t>(i)];
    auto tables = std::make_unique<Tables>();
    tables->vcl = WrapVcl(ava_gen_vcl::MakeVclGuestApi(vm.endpoint),
                          static_cast<std::uint32_t>(vm.id), &tables->counters);
    const std::uint64_t seed =
        options.seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1);
    std::unique_ptr<Client> client = spec.make(i, tables.get(), seed);
    AVA_RETURN_IF_ERROR(client->Setup());
    guests->tables.push_back(std::move(tables));
    guests->clients.push_back(std::move(client));
  }
  for (auto& client : guests->clients) {
    CountOutcome(client->WarmUp(), tally);
    CountOutcome(client->Null(), tally);
  }
  return guests;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

void Append(std::vector<double>* to, const std::vector<double>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

double Median(const std::vector<double>& v) {
  return Percentile(v, 50).value_or(0.0);
}

enum class Better { kLower, kHigher };

// A run's figure from its per-pass figures: the quartile on the better
// side. A slower program slows every pass and moves it; host interference
// that slows up to three quarters of the passes does not.
double BetterQuartile(const std::vector<double>& per_pass, Better better) {
  return Percentile(per_pass, better == Better::kLower ? 25 : 75)
      .value_or(0.0);
}

// What one guest thread did in one pass.
struct ClientPass {
  std::vector<double> op_us;
  std::vector<double> null_us;
  std::uint64_t calls = 0;    // API calls, all forwarded
  std::uint64_t payload = 0;  // application payload bytes
  Tally tally;
};

struct PassStats {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t ops = 0;      // measured ops
  std::uint64_t calls = 0;    // summed over every guest
  std::uint64_t payload = 0;  // summed over every guest
  std::vector<ClientPass> clients;
};

// One pass: every client on its own thread, closed loop. Measured clients
// stop once `seconds` have passed; background clients run until the
// measured ones are done.
PassStats RunPass(const Spec& spec, double seconds, Guests* guests,
                  Tally* tally) {
  const std::size_t n = guests->clients.size();
  PassStats out;
  out.clients.resize(n);
  std::atomic<int> measured_left{0};
  for (const auto& c : guests->clients) {
    measured_left += c->background() ? 0 : 1;
  }
  const auto limit_ns = static_cast<std::int64_t>(seconds * 1e9);
  const double cpu0 = ProcessCpuSeconds();
  const std::int64_t t0 = NowNs();

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      Client& client = *guests->clients[i];
      const ApiCounters& counters = guests->tables[i]->counters;
      ClientPass& mine = out.clients[i];
      const std::uint64_t calls0 = counters.calls.load();
      const std::uint64_t payload0 = counters.payload_bytes.load();
      const std::int64_t start = NowNs();
      std::uint64_t cycles = 0;  // one op plus its null calls
      while (client.background() ? measured_left.load() > 0
                                 : cycles++ == 0 || NowNs() - start < limit_ns) {
        client.Prepare();
        const std::int64_t op_start = NowNs();
        ava::Status status = client.Op();
        const std::int64_t op_end = NowNs();
        if (status.ok()) {
          status = client.Check();
        }
        CountOutcome(status, &mine.tally);
        if (status.ok()) {
          mine.op_us.push_back(static_cast<double>(op_end - op_start) / 1e3);
        }
        const int nulls = client.background() ? 0 : spec.nulls_per_op;
        for (int k = 0; k < nulls; ++k) {
          const std::int64_t null_start = NowNs();
          const ava::Status null_status = client.Null();
          const std::int64_t null_end = NowNs();
          CountOutcome(null_status, &mine.tally);
          if (null_status.ok()) {
            mine.null_us.push_back(static_cast<double>(null_end - null_start) /
                                   1e3);
          }
        }
      }
      mine.calls = counters.calls.load() - calls0;
      mine.payload = counters.payload_bytes.load() - payload0;
      if (!client.background()) {
        measured_left.fetch_sub(1);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  out.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  out.cpu_s = ProcessCpuSeconds() - cpu0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!guests->clients[i]->background()) {
      out.ops += out.clients[i].op_us.size();
    }
    out.calls += out.clients[i].calls;
    out.payload += out.clients[i].payload;
    tally->attempted += out.clients[i].tally.attempted;
    tally->failed += out.clients[i].tally.failed;
  }
  return out;
}

// Pass length: kPasses passes per run.
double PassSeconds(const RunOptions& options) {
  return std::max(0.05, options.seconds / kPasses);
}

std::string AffinityList() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return "?";
  }
  std::string out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) {
      continue;
    }
    int last = cpu;
    while (last + 1 < CPU_SETSIZE && CPU_ISSET(last + 1, &set)) {
      ++last;
    }
    if (!out.empty()) {
      out += ",";
    }
    out += std::to_string(cpu);
    if (last > cpu) {
      out += "-" + std::to_string(last);
    }
    cpu = last;
  }
  return out;
}

std::string HostJson(const RunOptions& options, Deployment& deployment) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int allowed =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
  std::ostringstream os;
  os << "{\"workload\": \"" << options.workload << "\", \"seed\": "
     << options.seed << ", \"seconds\": " << options.seconds
     << ", \"trace\": " << (options.trace ? 1 : 0)
     << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"cpus_allowed\": " << allowed << ", \"affinity\": \""
     << AffinityList() << "\", \"parallelism\": [";
  const auto& vms = deployment.vms();
  for (std::size_t i = 0; i < vms.size(); ++i) {
    auto p = deployment.router().ParallelismFor(vms[i]->id);
    os << (i > 0 ? ", " : "") << (p.ok() ? *p : -1);
  }
  os << "], \"transport\": \"" << deployment.transport_name()
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\"}";
  return os.str();
}

ava::Result<RunResult> RunUntraced(const RunOptions& options,
                                   const Spec& spec) {
  Tally tally;
  std::vector<double> setup_s;
  const auto timed_setup = [&]() -> ava::Result<std::unique_ptr<Guests>> {
    const std::int64_t t0 = NowNs();
    AVA_ASSIGN_OR_RETURN(std::unique_ptr<Guests> g,
                         SetUp(options, spec, false, &tally));
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    return g;
  };
  AVA_ASSIGN_OR_RETURN(std::unique_ptr<Guests> guests, timed_setup());

  const double pass_s = PassSeconds(options);
  RunPass(spec, pass_s / 2, guests.get(), &tally);  // settle, untimed

  // One figure per pass for each metric.
  std::vector<double> op_p50_us, null_p50_us, null_p90_us, calls_per_s,
      payload_MBps;
  std::size_t ops = 0, nulls = 0;
  const std::int64_t start = NowNs();
  for (int pass = 0;
       pass < 2 || static_cast<double>(NowNs() - start) / 1e9 < options.seconds;
       ++pass) {
    // More set-ups, each torn down untimed, spread over the run so they
    // see the same host conditions as the passes.
    for (int i = 0; i < kSetupsPerPass; ++i) {
      AVA_RETURN_IF_ERROR(timed_setup().status());
    }
    PassStats stats = RunPass(spec, pass_s, guests.get(), &tally);
    std::vector<double> pass_ops, pass_nulls;
    for (std::size_t i = 0; i < stats.clients.size(); ++i) {
      if (!guests->clients[i]->background()) {
        Append(&pass_ops, stats.clients[i].op_us);
        Append(&pass_nulls, stats.clients[i].null_us);
      }
    }
    ops += pass_ops.size();
    nulls += pass_nulls.size();
    if (!pass_ops.empty()) {
      op_p50_us.push_back(Median(pass_ops));
    }
    if (!pass_nulls.empty()) {
      null_p50_us.push_back(Median(pass_nulls));
    }
    if (auto p90 = TailPercentile(pass_nulls, 90); p90.has_value()) {
      null_p90_us.push_back(*p90);
    }
    // Completed work per wall second of the pass, summed over guests.
    calls_per_s.push_back(static_cast<double>(stats.calls) / stats.wall_s);
    payload_MBps.push_back(static_cast<double>(stats.payload) / 1e6 /
                           stats.wall_s);
  }

  if (null_p90_us.empty()) {
    std::fprintf(stderr, "perfbench: too few null calls per pass for a p90\n");
  }
  std::fprintf(stderr,
               "perfbench: %s: %zu passes, %zu ops, %zu null calls, %zu "
               "set-ups\n",
               options.workload.c_str(), calls_per_s.size(), ops, nulls,
               setup_s.size());

  RunResult result;
  result.host_json = HostJson(options, *guests->deployment);
  result.metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"op_p50_us", BetterQuartile(op_p50_us, Better::kLower), "us"},
      {"null_p50_us", BetterQuartile(null_p50_us, Better::kLower), "us"},
      {"null_p90_us", BetterQuartile(null_p90_us, Better::kLower), "us"},
      {"calls_per_s", BetterQuartile(calls_per_s, Better::kHigher), "1/s"},
      {"payload_MBps", BetterQuartile(payload_MBps, Better::kHigher), "MB/s"},
  };
  result.attempted = tally.attempted;
  result.failed = tally.failed;
  return result;
}

// Counters the program already exposes, read before and after the run.
struct Counters {
  std::uint64_t xfer_hits = 0, arena_allocs = 0, arena_fallbacks = 0,
                miss_retries = 0, rejected = 0, ring_bytes = 0,
                repeat_writes = 0;
  std::int64_t rate_wait_ns = 0, vtime_ns = 0;
  std::uint64_t instructions = 0, commands = 0;

  static Counters Read(Guests& guests) {
    Counters c;
    Deployment& d = *guests.deployment;
    for (const auto& vm : d.vms()) {
      const ava::GuestEndpoint& ep = *vm->endpoint;
      c.xfer_hits += ep.xfer_hits();
      c.arena_allocs += ep.arena_allocs();
      c.arena_fallbacks += ep.arena_fallbacks();
      c.miss_retries += ep.xfer_miss_retries();
      if (auto s = d.router().StatsFor(vm->id); s.ok()) {
        c.rejected += s->calls_rejected;
        c.rate_wait_ns += s->rate_limit_wait_ns;
      }
    }
    for (const auto& client : guests.clients) {
      c.repeat_writes += client->repeat_writes();
    }
    c.ring_bytes = d.RingBytes();
    const vcl::SiloCounters vcl_counters = vcl::DefaultSilo().Counters();
    c.vtime_ns = vcl_counters.virtual_time_ns;
    c.instructions = vcl_counters.instructions_executed;
    c.commands = vcl_counters.commands_executed;
    return c;
  }
};

ava::Result<RunResult> RunTraced(const RunOptions& options, const Spec& spec) {
  Tally tally;
  AVA_ASSIGN_OR_RETURN(std::unique_ptr<Guests> guests,
                       SetUp(options, spec, true, &tally));
  Tracer& tracer = Tracer::Get();

  const double pass_s = PassSeconds(options);
  std::vector<double> op_traced, op_plain, null_traced, null_plain;
  std::vector<double> cpu_us_per_op;  // per untraced pass
  Assembled layers;
  // Traced wall time, and the part of it whose spans the store kept.
  double traced_wall_s = 0.0, window_s = 0.0;
  std::uint64_t ops = 0;
  const Counters before = Counters::Read(*guests);
  const std::int64_t start = NowNs();
  // Alternate untraced and traced passes, so both see the same conditions.
  for (int pass = 0;
       pass < 4 || static_cast<double>(NowNs() - start) / 1e9 < options.seconds;
       ++pass) {
    const bool traced = pass % 2 == 1;
    const std::int64_t pass_start = NowNs();
    tracer.set_on(traced);
    PassStats stats = RunPass(spec, pass_s, guests.get(), &tally);
    tracer.set_on(false);
    const std::int64_t pass_end = NowNs();
    for (std::size_t i = 0; i < stats.clients.size(); ++i) {
      if (!guests->clients[i]->background()) {
        Append(traced ? &op_traced : &op_plain, stats.clients[i].op_us);
        Append(traced ? &null_traced : &null_plain, stats.clients[i].null_us);
      }
    }
    if (traced) {
      const Tracer::Dump dump = tracer.Take();
      AssembleLayers(dump, &layers);
      const std::int64_t kept_until =
          dump.full_at_ns != 0 ? std::min(dump.full_at_ns, pass_end) : pass_end;
      traced_wall_s += static_cast<double>(pass_end - pass_start) / 1e9;
      window_s += static_cast<double>(kept_until - pass_start) / 1e9;
    } else if (stats.ops > 0) {
      cpu_us_per_op.push_back(stats.cpu_s * 1e6 /
                              static_cast<double>(stats.ops));
    }
    ops += stats.ops;
  }
  const Counters after = Counters::Read(*guests);

  const auto per_op = [&](double total) {
    return ops > 0 ? total / static_cast<double>(ops) : 0.0;
  };
  const LayerSamples& all = layers.all;
  const LayerSamples& nulls = layers.nulls;
  const double null_sum = Median(nulls.marshal) + Median(nulls.up) +
                          Median(nulls.queue) + Median(nulls.exec) +
                          Median(nulls.rreply) + Median(nulls.down) +
                          Median(nulls.reply);
  const double overhead = Median(op_traced) - Median(op_plain);
  const std::uint64_t repeats = after.repeat_writes - before.repeat_writes;
  const int transfers = guests->clients.front()->transfers_per_op();
  std::fprintf(stderr,
               "perfbench: traced %s: null p50 untraced %.2f us, traced %.2f "
               "us, layer p50 sum %.2f us; op p50 overhead %.2f us; %llu "
               "API spans in %.2f of %.2f traced s, %llu discarded\n",
               options.workload.c_str(), Median(null_plain),
               Median(null_traced), null_sum, overhead,
               static_cast<unsigned long long>(all.api_calls), window_s,
               traced_wall_s,
               static_cast<unsigned long long>(layers.discarded_calls));

  RunResult result;
  result.host_json = HostJson(options, *guests->deployment);
  result.metrics = {
      {"gen.marshal_us", Median(all.marshal), "us"},
      {"runtime.reply_us", Median(all.reply), "us"},
      {"runtime.msgs_per_call",
       all.api_calls > 0 ? static_cast<double>(all.messages) /
                               static_cast<double>(all.api_calls)
                         : 0.0,
       "ratio"},
      {"transport.up_us", Median(all.up), "us"},
      {"transport.down_us", Median(all.down), "us"},
      {"transport.bytes_per_op",
       per_op(static_cast<double>(after.ring_bytes - before.ring_bytes)), "B"},
      {"router.queue_us", Median(all.queue), "us"},
      {"router.queue_p99_us", TailPercentile(all.queue, 99).value_or(0.0),
       "us"},
      {"router.reply_us", Median(all.rreply), "us"},
      {"router.rejected", static_cast<double>(after.rejected - before.rejected),
       "count"},
      {"router.rate_wait_us",
       static_cast<double>(after.rate_wait_ns - before.rate_wait_ns) / 1e3,
       "us"},
      {"server.exec_us", Median(all.exec), "us"},
      {"server.busy_share",
       window_s > 0 ? all.exec_total_us / (window_s * 1e6) : 0.0, "ratio"},
      {"forward_us", Median(all.forward), "us"},
      {"runtime.xfer_hit_ratio",
       repeats > 0 ? static_cast<double>(after.xfer_hits - before.xfer_hits) /
                         static_cast<double>(repeats)
                   : 0.0,
       "ratio"},
      {"runtime.arena_allocs",
       static_cast<double>(after.arena_allocs - before.arena_allocs), "count"},
      {"runtime.arena_fallbacks",
       static_cast<double>(after.arena_fallbacks - before.arena_fallbacks),
       "count"},
      {"runtime.xfer_miss_retries",
       static_cast<double>(after.miss_retries - before.miss_retries), "count"},
      {"silo.vtime_ms_per_op",
       per_op(static_cast<double>(after.vtime_ns - before.vtime_ns)) / 1e6,
       "ms"},
      {"silo.instr_per_op",
       per_op(static_cast<double>(after.instructions - before.instructions)),
       "count"},
      {"silo.cmds_per_op",
       per_op(static_cast<double>(after.commands - before.commands)), "count"},
      {"workload.repeat_share",
       transfers > 0 ? per_op(static_cast<double>(repeats)) / transfers : 0.0,
       "ratio"},
      {"cpu_us_per_op", BetterQuartile(cpu_us_per_op, Better::kLower), "us"},
      {"trace.overhead_us", overhead, "us"},
      {"trace.window_share",
       traced_wall_s > 0 ? window_s / traced_wall_s : 0.0, "ratio"},
      {"trace.discarded_calls", static_cast<double>(layers.discarded_calls),
       "count"},
      {"null.layer_sum_us", null_sum, "us"},
      {"null.untraced_p50_us", Median(null_plain), "us"},
  };
  result.attempted = tally.attempted;
  result.failed = tally.failed;
  return result;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "chatty" || name == "bulk" || name == "tenants";
}

ava::Result<RunResult> RunWorkload(const RunOptions& options) {
  if (!IsWorkload(options.workload)) {
    return ava::InvalidArgument("unknown workload " + options.workload);
  }
  const Spec spec = SpecFor(options.workload);
  return options.trace ? RunTraced(options, spec) : RunUntraced(options, spec);
}

}  // namespace perfbench
