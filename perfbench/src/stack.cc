#include "perfbench/src/stack.h"

#include <cstring>
#include <utility>

#include "perfbench/src/trace.h"
#include "src/proto/wire.h"

namespace perfbench {

namespace {

// Wire layout (src/proto/wire.h): a call carries its id after
// kind(1) api_id(2) func_id(4); a reply right after kind(1); a batch is
// kind(1) count(4) followed by length-prefixed calls.
constexpr std::size_t kCallIdOffset = 7;
constexpr std::size_t kReplyIdOffset = 1;

std::uint64_t ReadU64(const ava::Bytes& m, std::size_t offset) {
  std::uint64_t v = 0;
  if (m.size() >= offset + sizeof(v)) {
    std::memcpy(&v, m.data() + offset, sizeof(v));
  }
  return v;
}

// Call ids carried by a guest->host frame (one call or a batch of them).
template <typename Fn>
void ForEachCallId(const ava::Bytes& m, Fn fn) {
  if (m.empty()) {
    return;
  }
  const auto kind = static_cast<ava::MsgKind>(m[0]);
  if (kind == ava::MsgKind::kCall) {
    fn(ReadU64(m, kCallIdOffset));
  } else if (kind == ava::MsgKind::kBatch) {
    ava::Bytes unsealed = m;
    if (!ava::CheckAndStripFrame(&unsealed).ok()) {
      return;
    }
    auto calls = ava::DecodeBatch(unsealed);
    if (calls.ok()) {
      for (const ava::Bytes& call : *calls) {
        fn(ReadU64(call, kCallIdOffset));
      }
    }
  }
}

}  // namespace

void CallFifo::Push(std::uint64_t call_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  ids_.push_back(call_id);
}

std::uint64_t CallFifo::Pop() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ids_.empty()) {
    return 0;
  }
  const std::uint64_t id = ids_.front();
  ids_.pop_front();
  return id;
}

TapTransport::TapTransport(ava::TransportPtr inner, std::uint32_t vm, End end,
                           std::shared_ptr<CallFifo> fifo)
    : inner_(std::move(inner)), vm_(vm), end_(end), fifo_(std::move(fifo)) {}

ava::Status TapTransport::Send(const ava::Bytes& message) {
  bytes_.fetch_add(message.size(), std::memory_order_relaxed);
  Tracer& tracer = Tracer::Get();
  if (tracer.on()) {
    const std::int64_t t = NowNs();
    if (end_ == End::kGuest) {
      ForEachCallId(message, [&](std::uint64_t id) {
        tracer.RecordHop(vm_, Hop::kGuestSend, id, t);
        NoteGuestSend(id);
      });
    } else if (!message.empty() &&
               static_cast<ava::MsgKind>(message[0]) == ava::MsgKind::kReply) {
      tracer.RecordHop(vm_, Hop::kHostSend, ReadU64(message, kReplyIdOffset),
                       t);
    }
  }
  return inner_->Send(message);
}

void TapTransport::OnReceived(const ava::Bytes& message) {
  bytes_.fetch_add(message.size(), std::memory_order_relaxed);
  Tracer& tracer = Tracer::Get();
  const bool on = tracer.on();
  const std::int64_t t = on ? NowNs() : 0;
  if (end_ == End::kHost) {
    // Every call enters the FIFO, traced or not, so executions stay paired
    // with their ids across tracing windows.
    ForEachCallId(message, [&](std::uint64_t id) {
      fifo_->Push(id);
      if (on) {
        tracer.RecordHop(vm_, Hop::kHostRecv, id, t);
      }
    });
  } else if (on && !message.empty() &&
             static_cast<ava::MsgKind>(message[0]) == ava::MsgKind::kReply) {
    tracer.RecordHop(vm_, Hop::kGuestRecv, ReadU64(message, kReplyIdOffset), t);
  }
}

ava::Result<ava::Bytes> TapTransport::Recv() {
  blocking_recvs_.fetch_add(1, std::memory_order_relaxed);
  auto r = inner_->Recv();
  if (r.ok()) {
    OnReceived(*r);
  }
  return r;
}

ava::Result<ava::Bytes> TapTransport::RecvTimeout(std::int64_t timeout_ns) {
  blocking_recvs_.fetch_add(1, std::memory_order_relaxed);
  auto r = inner_->RecvTimeout(timeout_ns);
  if (r.ok()) {
    OnReceived(*r);
  }
  return r;
}

ava::Result<ava::Bytes> TapTransport::TryRecv() {
  polled_recvs_.fetch_add(1, std::memory_order_relaxed);
  auto r = inner_->TryRecv();
  if (r.ok()) {
    OnReceived(*r);
  }
  return r;
}

ava::Result<std::size_t> TapTransport::TryRecvBatch(
    std::vector<ava::Bytes>* out, std::size_t max) {
  polled_recvs_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t before = out->size();
  auto r = inner_->TryRecvBatch(out, max);
  for (std::size_t i = before; i < out->size(); ++i) {
    OnReceived((*out)[i]);
  }
  return r;
}

ava::ApiHandler TapHandler(ava::ApiHandler inner, std::uint32_t vm,
                           std::shared_ptr<CallFifo> fifo) {
  return [inner = std::move(inner), vm, fifo = std::move(fifo)](
             ava::ServerContext* ctx, std::uint32_t func_id,
             ava::ByteReader* args, bool is_async,
             ava::ByteWriter* reply) -> ava::Status {
    const std::uint64_t id = fifo->Pop();
    Tracer& tracer = Tracer::Get();
    if (!tracer.on() || id == 0) {
      return inner(ctx, func_id, args, is_async, reply);
    }
    const std::int64_t start = NowNs();
    ava::Status status = inner(ctx, func_id, args, is_async, reply);
    const std::int64_t end = NowNs();
    tracer.RecordHop(vm, Hop::kExecStart, id, start);
    tracer.RecordHop(vm, Hop::kExecEnd, id, end);
    return status;
  };
}

ava::Result<std::unique_ptr<Deployment>> Deployment::Create(int vms,
                                                            bool taps) {
  std::unique_ptr<Deployment> d(new Deployment());
  d->router_ = std::make_unique<ava::Router>();
  d->router_->Start();
  for (int i = 0; i < vms; ++i) {
    const ava::VmId id = static_cast<ava::VmId>(i + 1);
    AVA_ASSIGN_OR_RETURN(ava::ChannelPair pair, ava::MakeShmRingChannel());
    d->transport_name_ = pair.guest->name();
    auto vm = std::make_unique<GuestVm>();
    vm->id = id;
    vm->session = std::make_shared<ava::ApiServerSession>(id);
    ava::ApiHandler vcl = ava_gen_vcl::MakeVclApiHandler();
    ava::ApiHandler mvnc = ava_gen_mvnc::MakeMvncApiHandler();
    if (taps) {
      const auto vm32 = static_cast<std::uint32_t>(id);
      auto fifo = std::make_shared<CallFifo>();
      auto guest = std::make_unique<TapTransport>(
          std::move(pair.guest), vm32, TapTransport::End::kGuest, nullptr);
      auto host = std::make_unique<TapTransport>(
          std::move(pair.host), vm32, TapTransport::End::kHost, fifo);
      vm->guest_tap = guest.get();
      vm->host_tap = host.get();
      pair.guest = std::move(guest);
      pair.host = std::move(host);
      vcl = TapHandler(std::move(vcl), vm32, fifo);
      mvnc = TapHandler(std::move(mvnc), vm32, fifo);
    }
    vm->session->RegisterApi(ava_gen_vcl::kApiId, std::move(vcl));
    vm->session->RegisterApi(ava_gen_mvnc::kApiId, std::move(mvnc));
    ava::VmPolicy policy;
    policy.max_parallelism = 1;
    AVA_RETURN_IF_ERROR(
        d->router_->AttachVm(id, std::move(pair.host), vm->session, policy));
    ava::GuestEndpoint::Options options;
    options.vm_id = id;
    vm->endpoint =
        std::make_shared<ava::GuestEndpoint>(std::move(pair.guest), options);
    d->vms_.push_back(std::move(vm));
  }
  return d;
}

Deployment::~Deployment() {
  vms_.clear();
  if (router_ != nullptr) {
    router_->Stop();
  }
}

std::uint64_t Deployment::RingBytes() const {
  std::uint64_t n = 0;
  for (const auto& vm : vms_) {
    if (vm->guest_tap != nullptr) {
      n += vm->guest_tap->bytes();
    }
  }
  return n;
}

}  // namespace perfbench
