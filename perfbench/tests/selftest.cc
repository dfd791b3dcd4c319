// Tests for the benchmark's own code: the transport tap keeps the router's
// epoll and arena paths, the tail rule of the percentile helper, span self
// time, and the per-layer split of a call.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "perfbench/src/api_wrap.h"
#include "perfbench/src/stack.h"
#include "perfbench/src/trace.h"
#include "src/workloads/vcl_workloads.h"

namespace perfbench {
namespace {

TEST(TapTransport, KeepsReadinessFdAndCompletesCallOnEpollLoop) {
  auto d = Deployment::Create(1, /*taps=*/true);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  GuestVm& vm = *(*d)->vms().front();
  ASSERT_NE(vm.host_tap, nullptr);
  EXPECT_GE(vm.host_tap->readiness_fd(), 0);
  EXPECT_GE(vm.guest_tap->readiness_fd(), 0);

  auto api = ava_gen_vcl::MakeVclGuestApi(vm.endpoint);
  vcl_uint platforms = 0;
  ASSERT_EQ(api.vclGetPlatformIDs(0, nullptr, &platforms), VCL_SUCCESS);
  EXPECT_GE(platforms, 1u);
  // The router's epoll loop polls; a reader thread would block in Recv.
  EXPECT_GT(vm.host_tap->polled_recvs(), 0u);
  EXPECT_EQ(vm.host_tap->blocking_recvs(), 0u);
}

TEST(TapTransport, BulkTransferStillUsesTheArena) {
  auto d = Deployment::Create(1, /*taps=*/true);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  GuestVm& vm = *(*d)->vms().front();
  ASSERT_NE(vm.endpoint->bulk_arena(), nullptr);
  const std::uint64_t before = vm.endpoint->arena_allocs();

  auto api = ava_gen_vcl::MakeVclGuestApi(vm.endpoint);
  auto session = workloads::VclSession::Open(api);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  std::vector<std::uint8_t> data(1u << 20), back(1u << 20);
  std::iota(data.begin(), data.end(), 0);
  auto buffer = session->MakeBuffer(data.size());
  ASSERT_TRUE(buffer.ok());
  ASSERT_TRUE(session->Write(*buffer, data.data(), data.size()).ok());
  ASSERT_TRUE(session->Read(*buffer, back.data(), back.size()).ok());
  EXPECT_EQ(back, data);
  EXPECT_GT(vm.endpoint->arena_allocs(), before);
}

std::vector<double> Ramp(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(Percentile(Ramp(100), 50).value(), 50.0);
  EXPECT_EQ(Percentile(Ramp(1), 99).value(), 1.0);
  EXPECT_FALSE(Percentile({}, 50).has_value());
}

TEST(Percentile, TailNeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(TailPercentile(Ramp(100), 99).has_value());  // 1 beyond
  EXPECT_FALSE(TailPercentile(Ramp(999), 99).has_value());  // 9 beyond
  ASSERT_TRUE(TailPercentile(Ramp(1000), 99).has_value());  // 10 beyond
  EXPECT_EQ(TailPercentile(Ramp(1000), 99).value(), 990.0);
  // Ties with the reported value are not beyond it.
  std::vector<double> flat(2000, 7.0);
  EXPECT_FALSE(TailPercentile(flat, 99).has_value());
}

TEST(SelfTime, SubtractsUnionOfClippedChildren) {
  EXPECT_EQ(SelfTimeNs({0, 100}, {}), 100);
  EXPECT_EQ(SelfTimeNs({0, 100}, {{10, 30}, {20, 40}}), 70);   // overlap once
  EXPECT_EQ(SelfTimeNs({0, 100}, {{90, 120}, {-5, 5}}), 85);   // clipped
  EXPECT_EQ(SelfTimeNs({0, 100}, {{0, 100}, {10, 20}}), 0);
  EXPECT_EQ(SelfTimeNs({0, 100}, {{200, 300}}), 100);
}

// A null query, id `id`, on VM 3 from 1000 to 2500 ns, with its six hops.
Tracer::Dump OneCall(std::uint64_t id, const std::int64_t (&t)[kHopCount]) {
  Tracer::Dump dump;
  for (int h = 0; h < kHopCount; ++h) {
    dump.hops.push_back(HopEvent{3, static_cast<Hop>(h), id, t[h]});
  }
  ApiSpan span;
  span.vm = 3;
  span.null_query = true;
  span.entry_ns = 1000;
  span.exit_ns = 2500;
  span.first_call_id = id;
  span.messages = 1;
  dump.apis.push_back(span);
  return dump;
}

TEST(AssembleLayers, SyncCallSplitsIntoContiguousLayers) {
  Assembled a;
  AssembleLayers(OneCall(42, {1100, 1300, 1600, 2000, 2100, 2400}), &a);
  EXPECT_EQ(a.discarded_calls, 0u);
  ASSERT_EQ(a.nulls.marshal.size(), 1u);
  const LayerSamples& s = a.nulls;
  EXPECT_DOUBLE_EQ(s.marshal[0], 0.1);
  EXPECT_DOUBLE_EQ(s.up[0], 0.2);
  EXPECT_DOUBLE_EQ(s.queue[0], 0.3);
  EXPECT_DOUBLE_EQ(s.exec[0], 0.4);
  EXPECT_DOUBLE_EQ(s.rreply[0], 0.1);
  EXPECT_DOUBLE_EQ(s.down[0], 0.3);
  EXPECT_DOUBLE_EQ(s.reply[0], 0.1);
  EXPECT_DOUBLE_EQ(s.forward[0], 0.9);  // round trip 1.3 minus exec 0.4
  EXPECT_DOUBLE_EQ(s.marshal[0] + s.up[0] + s.queue[0] + s.exec[0] +
                       s.rreply[0] + s.down[0] + s.reply[0],
                   1.5);  // the API span
}

TEST(AssembleLayers, DiscardsCallsWithHopsOutOfOrder) {
  Assembled a;
  // Handler entered before the host received the call: a wrong pairing.
  AssembleLayers(OneCall(7, {1100, 1300, 1200, 2000, 2100, 2400}), &a);
  // Reply sent before the handler returned.
  AssembleLayers(OneCall(8, {1100, 1300, 1600, 2000, 1900, 2400}), &a);
  EXPECT_EQ(a.discarded_calls, 2u);
  EXPECT_TRUE(a.all.marshal.empty());
  EXPECT_EQ(a.all.api_calls, 2u);
  AssembleLayers(OneCall(9, {1100, 1300, 1600, 2000, 2100, 2400}), &a);
  EXPECT_EQ(a.all.marshal.size(), 1u);
}

TEST(Tracer, FullStoreStopsRecordingAndMarksTheTime) {
  Tracer& tracer = Tracer::Get();
  tracer.Take();
  tracer.set_on(true);
  const std::int64_t before = NowNs();
  std::uint64_t offered = 0;
  while (tracer.on()) {
    tracer.RecordHop(1, Hop::kGuestSend, ++offered, NowNs());
  }
  tracer.RecordHop(1, Hop::kGuestSend, ++offered, NowNs());  // refused
  const Tracer::Dump full = tracer.Take();
  EXPECT_EQ(full.hops.size(), offered - 2);
  EXPECT_GE(full.full_at_ns, before);
  EXPECT_LE(full.full_at_ns, NowNs());

  // Take() empties the store and clears the mark.
  tracer.set_on(true);
  tracer.RecordHop(1, Hop::kGuestSend, 1, NowNs());
  tracer.set_on(false);
  const Tracer::Dump next = tracer.Take();
  EXPECT_EQ(next.hops.size(), 1u);
  EXPECT_EQ(next.full_at_ns, 0);
}

}  // namespace
}  // namespace perfbench
