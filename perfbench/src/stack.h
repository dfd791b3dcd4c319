// The deployment every workload runs on: one router serving N guest VMs,
// each attached over the shared-memory ring (the hypervisor-FIFO stand-in),
// served by the router's epoll loop, at VmPolicy::max_parallelism 1 (one
// guest thread per VM; see README.md for why). Everything else is default.
//
// With taps on, each VM's two transport ends are wrapped in a forwarding
// decorator and each generated server handler in a timing wrapper, so the
// traced run can record a span at every layer boundary.
#ifndef PERFBENCH_SRC_STACK_H_
#define PERFBENCH_SRC_STACK_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mvnc_gen.h"
#include "src/common/result.h"
#include "src/router/router.h"
#include "src/runtime/guest_endpoint.h"
#include "src/server/api_server.h"
#include "src/transport/transport.h"
#include "vcl_gen.h"

namespace perfbench {

// Call ids in the order the host end received them. With one lane per VM
// the router executes a VM's calls in that order, so the handler wrapper
// pairs each execution with its call id by popping the front.
class CallFifo {
 public:
  void Push(std::uint64_t call_id);
  std::uint64_t Pop();  // 0 when empty

 private:
  std::mutex mutex_;
  std::deque<std::uint64_t> ids_;
};

// Forwarding Transport decorator. Every method reaches the inner transport,
// including the readiness fd, AckReadiness, TryRecvBatch and the arena, so
// the router still serves the channel from its epoll loop and bulk buffers
// still travel through the shared arena.
class TapTransport : public ava::Transport {
 public:
  enum class End { kGuest, kHost };

  TapTransport(ava::TransportPtr inner, std::uint32_t vm, End end,
               std::shared_ptr<CallFifo> fifo);

  ava::Status Send(const ava::Bytes& message) override;
  ava::Result<ava::Bytes> Recv() override;
  ava::Result<ava::Bytes> RecvTimeout(std::int64_t timeout_ns) override;
  ava::Result<ava::Bytes> TryRecv() override;
  ava::Result<std::size_t> TryRecvBatch(std::vector<ava::Bytes>* out,
                                        std::size_t max) override;
  void Close() override { inner_->Close(); }
  std::string name() const override { return inner_->name(); }
  int readiness_fd() const override { return inner_->readiness_fd(); }
  void AckReadiness() override { inner_->AckReadiness(); }
  std::shared_ptr<ava::BufferArena> arena() const override {
    return inner_->arena();
  }

  std::uint64_t bytes() const { return bytes_.load(); }
  std::uint64_t blocking_recvs() const { return blocking_recvs_.load(); }
  std::uint64_t polled_recvs() const { return polled_recvs_.load(); }

 private:
  void OnReceived(const ava::Bytes& message);

  ava::TransportPtr inner_;
  std::uint32_t vm_;
  End end_;
  std::shared_ptr<CallFifo> fifo_;  // host end only
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> blocking_recvs_{0};
  std::atomic<std::uint64_t> polled_recvs_{0};
};

// Times a generated server handler; the call id comes from the VM's FIFO.
ava::ApiHandler TapHandler(ava::ApiHandler inner, std::uint32_t vm,
                           std::shared_ptr<CallFifo> fifo);

struct GuestVm {
  ava::VmId id = 0;
  std::shared_ptr<ava::ApiServerSession> session;
  std::shared_ptr<ava::GuestEndpoint> endpoint;
  // Taps (null without taps). The guest tap is owned by the endpoint, the
  // host tap by the router; both outlive every use inside the Deployment.
  TapTransport* guest_tap = nullptr;
  TapTransport* host_tap = nullptr;
};

class Deployment {
 public:
  static ava::Result<std::unique_ptr<Deployment>> Create(int vms, bool taps);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  ava::Router& router() { return *router_; }
  std::vector<std::unique_ptr<GuestVm>>& vms() { return vms_; }
  const std::string& transport_name() const { return transport_name_; }

  // Bytes through the guest transport ends, both directions (taps only).
  std::uint64_t RingBytes() const;

 private:
  Deployment() = default;

  std::unique_ptr<ava::Router> router_;
  std::vector<std::unique_ptr<GuestVm>> vms_;
  std::string transport_name_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STACK_H_
