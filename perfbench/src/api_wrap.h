// Wrappers around every VclApi table entry: the boundary between
// the application and the generated guest library (layer `gen`). Always on,
// they count calls and application payload bytes; while the tracer is on
// they also record one ApiSpan per call.
#ifndef PERFBENCH_SRC_API_WRAP_H_
#define PERFBENCH_SRC_API_WRAP_H_

#include <atomic>
#include <cstdint>

#include "vcl_gen.h"

namespace perfbench {

struct ApiCounters {
  std::atomic<std::uint64_t> calls{0};
  // Bytes the application asked to move: write/read sizes and buffers
  // created from host memory. Wire overhead is not included.
  std::atomic<std::uint64_t> payload_bytes{0};
};

// While alive, API calls made by this thread are tagged as the null query.
class NullQueryScope {
 public:
  NullQueryScope();
  ~NullQueryScope();
  NullQueryScope(const NullQueryScope&) = delete;
  NullQueryScope& operator=(const NullQueryScope&) = delete;

 private:
  bool prev_;
};

// `vm` names the guest VM behind the table in recorded spans.
ava_gen_vcl::VclApi WrapVcl(ava_gen_vcl::VclApi api, std::uint32_t vm,
                            ApiCounters* counters);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_API_WRAP_H_
