/// Extension bench: scenario-program fan-out over the wire. One
/// EvaluateScenarioProgram request expands a 1000-scenario sweep family
/// server-side and evaluates it through the batcher's SIMD lanes; the
/// baseline issues the same 1000 scenarios as individual remote Evaluate
/// requests (assignments reconstructed from a locally expanded program, so
/// both arms evaluate the exact same valuations). The bench exits nonzero
/// unless the two arms' values are IEEE-754 bitwise identical — the
/// scenario subsystem's core contract — or unless the program request is
/// at least 5x faster than the per-scenario RPCs (the SCENARIOSTAT ratio;
/// ~23-28x at smoke scale on a 4-vCPU Xeon VM).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "io/serializer.h"
#include "scenario/program.h"
#include "server/client.h"
#include "server/provenance_service.h"
#include "server/server.h"

namespace provabs::bench {
namespace {

// 10 x 10 x 10 sweep values = 1000 scenarios.
const char kProgram[] =
    "LET a = SWEEP(0.5 .. 1.4 STEP 0.1);"
    "LET b = SWEEP(0.5 .. 1.4 STEP 0.1);"
    "LET c = SWEEP(0.5 .. 1.4 STEP 0.1);"
    "SET PREFIX(plan) = a;"
    "SET PREFIX(m) = b;"
    "SET * = c;";

int Run() {
  PrintHeader("Scenario fan-out: one program request vs per-scenario RPCs");

  Workload w = MakeTelephonyWorkload();

  ProvenanceService service;
  Server server(service, ServerOptions{});
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  LoadRequest load;
  load.artifact = "bench";
  load.polys_bytes = SerializePolynomialSet(w.polys, *w.vars);
  auto client_or = Client::Connect("127.0.0.1", server.port());
  if (!client_or.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 client_or.status().ToString().c_str());
    return 1;
  }
  Client& client = *client_or;
  auto loaded = client.Load(load);
  if (!loaded.ok() || !loaded->ok()) {
    std::fprintf(stderr, "load failed\n");
    return 1;
  }

  // Expand the same program locally to reconstruct each scenario's full
  // assignment list (slot variable name -> value), so the per-request arm
  // evaluates the exact valuations the server-side expansion produces.
  auto compiled = w.polys.Compiled();
  auto program_or =
      scenario::ScenarioProgram::Compile(kProgram, compiled, *w.vars);
  if (!program_or.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 program_or.status().ToString().c_str());
    return 1;
  }
  const uint64_t total = program_or->scenario_count();
  std::vector<DenseValuation> scenarios;
  Status expanded = program_or->ExpandChunk(0, total, &scenarios);
  if (!expanded.ok()) {
    std::fprintf(stderr, "expand failed: %s\n",
                 expanded.ToString().c_str());
    return 1;
  }
  const std::vector<VariableId>& slot_vars = compiled->slot_variables();
  std::vector<std::string> slot_names;
  slot_names.reserve(slot_vars.size());
  for (VariableId id : slot_vars) {
    slot_names.push_back(std::string(w.vars->NameOf(id)));
  }

  // Arm 1: one remote Evaluate per scenario.
  std::vector<std::vector<double>> per_request;
  per_request.reserve(scenarios.size());
  Timer t_individual;
  for (const DenseValuation& dense : scenarios) {
    EvaluateRequest req;
    req.artifact = "bench";
    for (size_t s = 0; s < slot_names.size(); ++s) {
      req.assignments.emplace_back(slot_names[s], dense[s]);
    }
    auto resp = client.Evaluate(req);
    if (!resp.ok() || !resp->ok()) {
      std::fprintf(stderr, "remote evaluate failed\n");
      return 1;
    }
    per_request.push_back(std::move(resp->values));
  }
  double individual_s = t_individual.ElapsedSeconds();

  // Arm 2: the whole family in one wire request.
  EvaluateScenarioProgramRequest sreq;
  sreq.artifact = "bench";
  sreq.program = kProgram;
  Timer t_program;
  auto sresp = client.EvaluateScenarioProgram(sreq);
  double program_s = t_program.ElapsedSeconds();
  if (!sresp.ok() || !sresp->ok()) {
    std::fprintf(stderr, "scenario program request failed\n");
    return 1;
  }
  if (sresp->scenario_count != total) {
    std::fprintf(stderr, "scenario count mismatch: %llu vs %llu\n",
                 static_cast<unsigned long long>(sresp->scenario_count),
                 static_cast<unsigned long long>(total));
    return 1;
  }

  const size_t poly_count = compiled->poly_count();
  uint64_t mismatches = 0;
  for (size_t i = 0; i < per_request.size(); ++i) {
    if (per_request[i].size() != poly_count ||
        std::memcmp(per_request[i].data(),
                    sresp->values.data() + i * poly_count,
                    poly_count * sizeof(double)) != 0) {
      ++mismatches;
    }
  }

  std::printf("%-28s %14s %16s %10s\n", "1000-scenario sweep",
              "total[s]", "scenarios/s", "speedup");
  std::printf("%-28s %14.4f %16.0f %10s\n", "per-scenario RPCs",
              individual_s, total / individual_s, "1x");
  std::printf("%-28s %14.4f %16.0f %9.1fx\n", "one program request",
              program_s, total / program_s,
              program_s > 0 ? individual_s / program_s : 0.0);
  std::printf("bitwise identity: %s (%llu/%llu scenarios differ)\n",
              mismatches == 0 ? "ok" : "FAILED",
              static_cast<unsigned long long>(mismatches),
              static_cast<unsigned long long>(total));
  const double ratio = program_s > 0 ? individual_s / program_s : 0.0;
  std::printf("MACHINEKEY cpu=%s\n", CpuModel().c_str());
  std::printf("SCENARIOSTAT scenarios=%llu ratio=%.1f\n",
              static_cast<unsigned long long>(total), ratio);
  const bool fast_enough = RatioFloorHolds("scenario fan-out", ratio, 5.0);

  ShutdownRequest shutdown;
  client.Shutdown(shutdown);
  server.Wait();
  return mismatches == 0 && fast_enough ? 0 : 1;
}

}  // namespace
}  // namespace provabs::bench

int main() { return provabs::bench::Run(); }
