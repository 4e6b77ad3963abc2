//===- Spans.h - The benchmark's own span recorder --------------*- C++-*-===//
//
// The traced mode records a span around every call the benchmark makes
// into a layer of the program. Spans of one op or job share an op id;
// nesting on a thread gives each span its parent. Spans stay in memory
// and are written out at exit as Chrome trace JSON, next to a per-layer
// self-time table (a span's duration minus the child spans it covers).
//
// A null Tracer* makes every Scope a no-op, so the untraced path runs the
// same code with no recording.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer {
public:
  struct Span {
    uint64_t Id = 0;
    uint64_t Parent = 0; ///< 0 = root
    uint64_t Op = 0;     ///< op / job id shared by its spans
    std::string Layer;
    std::string Name;
    uint32_t Tid = 0;
    Clock::time_point T0, T1;
  };

  Tracer() : Origin(Clock::now()) {}
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// A fresh op id for the spans of one op or job.
  uint64_t newOp();

  /// Opens a span on this thread's stack; \p Op = 0 inherits the
  /// enclosing span's op.
  uint64_t begin(std::string_view Layer, std::string_view Name, uint64_t Op);
  void end(uint64_t Id);

  /// Records a closed span of \p Ns measured elsewhere (a counter delta),
  /// as a child of \p Parent starting at the parent's start.
  void addChild(uint64_t Parent, std::string_view Layer, std::string_view Name,
                uint64_t Ns);

  /// Records a closed span with explicit times (spans whose ends are
  /// observed as events, such as a daemon job's phases); returns its id.
  uint64_t addSpan(std::string_view Layer, std::string_view Name, uint64_t Op,
                   Clock::time_point T0, Clock::time_point T1,
                   uint64_t Parent = 0);

  /// Self time per layer in ms: each span's duration minus the part its
  /// direct children cover.
  std::map<std::string, double> selfMsByLayer() const;
  /// Mean duration (ms) of the spans called \p Name; 0 when there are
  /// none.
  double meanMs(std::string_view Name) const;

  std::string chromeJson() const;
  bool writeFile(const std::string &Path) const;

  /// RAII span; a null tracer records nothing.
  class Scope {
  public:
    Scope(Tracer *T, std::string_view Layer, std::string_view Name,
          uint64_t Op = 0)
        : T(T), Id(T ? T->begin(Layer, Name, Op) : 0) {}
    ~Scope() {
      if (T)
        T->end(Id);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    uint64_t id() const { return Id; }

  private:
    Tracer *T;
    uint64_t Id;
  };

private:
  Clock::time_point Origin;
  mutable std::mutex Mu;
  std::vector<Span> Spans; ///< closed spans
  std::map<uint64_t, Span> Open;
  uint64_t NextId = 1;
  uint64_t NextOp = 1;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
