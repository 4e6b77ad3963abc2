//===- Spans.cpp ----------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

using namespace perfbench;

namespace {

/// This thread's open spans, innermost last.
thread_local std::vector<uint64_t> Stack;

uint32_t threadTag() {
  return uint32_t(std::hash<std::thread::id>()(std::this_thread::get_id()) &
                  0xffff);
}

double ms(Clock::duration D) {
  return std::chrono::duration<double, std::milli>(D).count();
}

std::string escape(std::string_view S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

} // namespace

uint64_t Tracer::newOp() {
  std::lock_guard<std::mutex> Lock(Mu);
  return NextOp++;
}

uint64_t Tracer::begin(std::string_view Layer, std::string_view Name,
                       uint64_t Op) {
  Span S;
  S.Layer = std::string(Layer);
  S.Name = std::string(Name);
  S.Tid = threadTag();
  std::lock_guard<std::mutex> Lock(Mu);
  S.Id = NextId++;
  if (!Stack.empty()) {
    S.Parent = Stack.back();
    auto It = Open.find(S.Parent);
    if (!Op && It != Open.end())
      Op = It->second.Op;
  }
  S.Op = Op;
  Stack.push_back(S.Id);
  S.T0 = Clock::now();
  Open.emplace(S.Id, std::move(S));
  return Stack.back();
}

void Tracer::end(uint64_t Id) {
  Clock::time_point T1 = Clock::now();
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Open.find(Id);
  if (It == Open.end())
    return;
  It->second.T1 = T1;
  Spans.push_back(std::move(It->second));
  Open.erase(It);
  if (!Stack.empty() && Stack.back() == Id)
    Stack.pop_back();
}

void Tracer::addChild(uint64_t Parent, std::string_view Layer,
                      std::string_view Name, uint64_t Ns) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto P = std::find_if(Spans.begin(), Spans.end(),
                        [&](const Span &S) { return S.Id == Parent; });
  if (P == Spans.end())
    return;
  Span S;
  S.Id = NextId++;
  S.Parent = Parent;
  S.Op = P->Op;
  S.Layer = std::string(Layer);
  S.Name = std::string(Name);
  S.Tid = P->Tid;
  S.T0 = P->T0;
  S.T1 = std::min(P->T1, P->T0 + std::chrono::nanoseconds(Ns));
  Spans.push_back(std::move(S));
}

uint64_t Tracer::addSpan(std::string_view Layer, std::string_view Name,
                         uint64_t Op, Clock::time_point T0,
                         Clock::time_point T1, uint64_t Parent) {
  Span S;
  S.Parent = Parent;
  S.Layer = std::string(Layer);
  S.Name = std::string(Name);
  S.Tid = threadTag();
  S.Op = Op;
  S.T0 = T0;
  S.T1 = std::max(T0, T1);
  std::lock_guard<std::mutex> Lock(Mu);
  S.Id = NextId++;
  Spans.push_back(std::move(S));
  return Spans.back().Id;
}

std::map<std::string, double> Tracer::selfMsByLayer() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::map<uint64_t, double> ChildMs;
  for (const Span &S : Spans)
    if (S.Parent)
      ChildMs[S.Parent] += ms(S.T1 - S.T0);
  std::map<std::string, double> Self;
  for (const Span &S : Spans) {
    auto It = ChildMs.find(S.Id);
    double Covered = It == ChildMs.end() ? 0 : It->second;
    Self[S.Layer] += std::max(0.0, ms(S.T1 - S.T0) - Covered);
  }
  return Self;
}

double Tracer::meanMs(std::string_view Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  double Sum = 0;
  size_t N = 0;
  for (const Span &S : Spans)
    if (S.Name == Name) {
      Sum += ms(S.T1 - S.T0);
      ++N;
    }
  return N ? Sum / double(N) : 0;
}

std::string Tracer::chromeJson() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::string Out = "{\"traceEvents\":[\n";
  bool First = true;
  for (const Span &S : Spans) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"id\":%llu,\"parent\":%llu,"
                  "\"op\":%llu}}",
                  ms(S.T0 - Origin) * 1e3, ms(S.T1 - S.T0) * 1e3, S.Tid,
                  (unsigned long long)S.Id, (unsigned long long)S.Parent,
                  (unsigned long long)S.Op);
    Out += First ? "" : ",\n";
    Out += "{\"name\":\"" + escape(S.Name) + "\",\"cat\":\"" +
           escape(S.Layer) + Buf;
    First = false;
  }
  Out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return Out;
}

bool Tracer::writeFile(const std::string &Path) const {
  std::ofstream F(Path, std::ios::binary | std::ios::trunc);
  F << chromeJson();
  return bool(F);
}
