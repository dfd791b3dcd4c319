#include "perfbench/src/api_wrap.h"

#include <cstddef>
#include <functional>
#include <type_traits>
#include <utility>

#include "perfbench/src/trace.h"

namespace perfbench {

namespace {

bool& InNullQuery() {
  static thread_local bool in_null = false;
  return in_null;
}

struct NoPayload {};

template <typename Payload, typename R, typename... A>
void Wrap(std::function<R(A...)>& fn, std::uint32_t vm, ApiCounters* counters,
          Payload payload) {
  fn = [inner = std::move(fn), vm, counters, payload](A... args) -> R {
    counters->calls.fetch_add(1, std::memory_order_relaxed);
    if constexpr (!std::is_same_v<Payload, NoPayload>) {
      counters->payload_bytes.fetch_add(payload(args...),
                                        std::memory_order_relaxed);
    }
    Tracer& tracer = Tracer::Get();
    if (!tracer.on()) {
      return inner(args...);
    }
    ApiContext ctx;
    ApiContext* const prev = std::exchange(CurrentApiContext(), &ctx);
    ApiSpan span;
    span.vm = vm;
    span.null_query = InNullQuery();
    span.entry_ns = NowNs();
    R result = inner(args...);
    span.exit_ns = NowNs();
    CurrentApiContext() = prev;
    span.first_call_id = ctx.first_call_id;
    span.messages = ctx.messages;
    tracer.RecordApi(span);
    return result;
  };
}

template <typename R, typename... A>
void Wrap(std::function<R(A...)>& fn, std::uint32_t vm,
          ApiCounters* counters) {
  Wrap(fn, vm, counters, NoPayload{});
}

}  // namespace

NullQueryScope::NullQueryScope() : prev_(std::exchange(InNullQuery(), true)) {}
NullQueryScope::~NullQueryScope() { InNullQuery() = prev_; }

ava_gen_vcl::VclApi WrapVcl(ava_gen_vcl::VclApi api, std::uint32_t vm,
                            ApiCounters* c) {
#define PB_WRAP(name) Wrap(api.name, vm, c)
  PB_WRAP(vclGetPlatformIDs);
  PB_WRAP(vclGetPlatformInfo);
  PB_WRAP(vclGetDeviceIDs);
  PB_WRAP(vclGetDeviceInfo);
  PB_WRAP(vclCreateContext);
  PB_WRAP(vclRetainContext);
  PB_WRAP(vclReleaseContext);
  PB_WRAP(vclCreateCommandQueue);
  PB_WRAP(vclRetainCommandQueue);
  PB_WRAP(vclReleaseCommandQueue);
  PB_WRAP(vclRetainMemObject);
  PB_WRAP(vclReleaseMemObject);
  PB_WRAP(vclGetMemObjectInfo);
  PB_WRAP(vclCreateProgramWithSource);
  PB_WRAP(vclBuildProgram);
  PB_WRAP(vclGetProgramBuildInfo);
  PB_WRAP(vclRetainProgram);
  PB_WRAP(vclReleaseProgram);
  PB_WRAP(vclCreateKernel);
  PB_WRAP(vclRetainKernel);
  PB_WRAP(vclReleaseKernel);
  PB_WRAP(vclSetKernelArgScalar);
  PB_WRAP(vclSetKernelArgBuffer);
  PB_WRAP(vclSetKernelArgLocal);
  PB_WRAP(vclEnqueueNDRangeKernel);
  PB_WRAP(vclEnqueueCopyBuffer);
  PB_WRAP(vclEnqueueFillBuffer);
  PB_WRAP(vclEnqueueBarrier);
  PB_WRAP(vclFlush);
  PB_WRAP(vclFinish);
  PB_WRAP(vclWaitForEvents);
  PB_WRAP(vclGetEventInfo);
  PB_WRAP(vclGetEventProfilingInfo);
  PB_WRAP(vclRetainEvent);
  PB_WRAP(vclReleaseEvent);
  PB_WRAP(vclGetKernelWorkGroupInfo);
#undef PB_WRAP
  Wrap(api.vclCreateBuffer, vm, c,
       [](vcl_context, vcl_bitfield flags, size_t size, const void* host,
          vcl_int*) -> std::uint64_t {
         return host != nullptr && (flags & VCL_MEM_COPY_HOST_PTR) != 0 ? size
                                                                        : 0;
       });
  Wrap(api.vclEnqueueReadBuffer, vm, c,
       [](vcl_command_queue, vcl_mem, vcl_bool, size_t, size_t size, void*,
          vcl_uint, const vcl_event*, vcl_event*) -> std::uint64_t {
         return size;
       });
  Wrap(api.vclEnqueueWriteBuffer, vm, c,
       [](vcl_command_queue, vcl_mem, vcl_bool, size_t, size_t size,
          const void*, vcl_uint, const vcl_event*, vcl_event*) -> std::uint64_t {
         return size;
       });
  return api;
}

}  // namespace perfbench
