#include "server/wire_protocol.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "io/byte_stream.h"

// The largest single heap request made while `g_track_allocations` is set,
// so the mutation sweep can bound what a corrupt element count makes a
// decoder reserve. Replacing the plain and nothrow forms together keeps
// every allocation they serve paired with a matching release.
namespace {
std::atomic<bool> g_track_allocations{false};
std::atomic<size_t> g_peak_allocation{0};

void* TrackedAlloc(size_t size) noexcept {
  if (g_track_allocations.load(std::memory_order_relaxed) &&
      size > g_peak_allocation.load(std::memory_order_relaxed)) {
    g_peak_allocation.store(size, std::memory_order_relaxed);
  }
  return std::malloc(size != 0 ? size : 1);
}
}  // namespace

void* operator new(size_t size) {
  if (void* p = TrackedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return TrackedAlloc(size);
}
// Out of line, so the compiler never sees free() applied to a pointer it
// knows came from operator new.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace provabs {
namespace {

// ------------------------------------------------------------- samples --

// One fully populated instance of every message kind: each field differs
// from its default, each ServerStats counter is distinct, every capability
// flag bit is set in some record, and one backend record carries tier 3.
// The golden test pins their encodings; the sweeps below mutate them.

LoadRequest SampleLoad() {
  return {"tel", std::string("\x00\xFFP", 3),
          {{"plans", "T1"}, {"months", ""}}};
}
CompressRequest SampleCompress() { return {"tel", "plans", "greedy", 300}; }
EvaluateRequest SampleEvaluate() {
  return {"tel", {{"m3", 0.5}, {"p1", -2.25}}, true, "plans", "greedy", 1500,
          "jit"};
}
InfoRequest SampleInfo() { return {"tel"}; }
TradeoffRequest SampleTradeoff() { return {"tel", "plans"}; }
ShutdownRequest SampleShutdown() { return {}; }
ListAlgosRequest SampleListAlgos() { return {}; }
ListBackendsRequest SampleListBackends() { return {}; }
EvaluateScenarioProgramRequest SampleEvaluateScenarioProgram() {
  return {"tel",    "SET * = 1;", true, "plans", "greedy", 4096,
          "simd_batch", ScenarioShape::kTopK, 5};
}
AppendRequest SampleAppend() { return {"tel", std::string("\x01\x00Q", 3)}; }
Response SampleResponse() {
  Response m;
  m.request_kind = MessageKind::kEvaluateScenarioProgramRequest;
  m.code = StatusCode::kInfeasible;
  m.message = "no adequate VVS";
  m.stats = {1,  2,  1u << 20, 1u << 26, 5,  6,  7,  8,  9,  10,        11,
             12, 13, 14,       15,       16, 17, 18, 19, 123456789, 21, 22};
  m.generation = 23;
  m.poly_count = 24;
  m.monomial_count = 2400;
  m.variable_count = 111;
  m.cache_hit = true;
  m.dedup_hit = true;
  m.delta_patched = true;
  m.monomial_loss = 1332;
  m.variable_loss = 98;
  m.adequate = true;
  m.vvs = "{T_root}";
  m.compressed_monomials = 1068;
  m.values = {1.5, -2.5};
  m.eval_backend = "jit";
  m.points = {{2400, 0}, {1068, 98}};
  m.algos = {{"opt", "DP", true, false, true, false, true},
             {"prox", "", false, true, false, true, false}};
  m.backends = {{"jit", "x86", true, false, 300, 3},
                {"naive", "", false, true, 8, 1}};
  m.scenario_count = 1000;
  m.program_cache_hit = true;
  m.scenario_indices = {999, 0, 421};
  m.objectives = {87.5, -1.25};
  return m;
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 0xF];
  }
  return out;
}

/// Every message kind's sample with its decoder, in kind order. The list
/// expands PROVABS_WIRE_REQUESTS, so a new kind cannot join the protocol
/// without a sample here, and every sweep below covers it.
struct Sample {
  MessageKind kind;
  std::string encoded;
  Status (*decode)(std::string_view);
};

std::vector<Sample> DeclaredSamples() {
  std::vector<Sample> samples;
#define PROVABS_SAMPLE(byte, name)                                    \
  samples.push_back({MessageKind::k##name##Request,                   \
                     Encode##name##Request(Sample##name()),           \
                     [](std::string_view p) -> Status {               \
                       return Decode##name##Request(p).status();      \
                     }});
  PROVABS_WIRE_REQUESTS(PROVABS_SAMPLE)
#undef PROVABS_SAMPLE
  samples.push_back({MessageKind::kResponse, EncodeResponse(SampleResponse()),
                     [](std::string_view p) -> Status {
                       return DecodeResponse(p).status();
                     }});
  return samples;
}

// --------------------------------------------------------- golden bytes --

/// Wire v7 byte for byte: any change to a layout, a field order, a flag
/// bit or a kind byte fails here and must come with a kWireVersion bump.
TEST(WireProtocolTest, GoldenBytesAtVersion7) {
  EXPECT_EQ(kWireVersion, 7);
  EXPECT_EQ(Hex(EncodeLoadRequest(SampleLoad())),
            "5056414207100374656c0300ff500205706c616e73025431066d6f6e74687300");
  EXPECT_EQ(Hex(EncodeCompressRequest(SampleCompress())),
            "5056414207110374656c05706c616e7306677265656479ac02");
  EXPECT_EQ(Hex(EncodeEvaluateRequest(SampleEvaluate())),
            "5056414207120374656c02026d33000000000000e03f0270310000000000"
            "0002c00105706c616e7306677265656479dc0b036a6974");
  EXPECT_EQ(Hex(EncodeInfoRequest(SampleInfo())),
            "5056414207130374656c");
  EXPECT_EQ(Hex(EncodeTradeoffRequest(SampleTradeoff())),
            "5056414207140374656c05706c616e73");
  EXPECT_EQ(Hex(EncodeShutdownRequest(SampleShutdown())),
            "505641420715");
  EXPECT_EQ(Hex(EncodeListAlgosRequest(SampleListAlgos())),
            "505641420716");
  EXPECT_EQ(Hex(EncodeListBackendsRequest(SampleListBackends())),
            "505641420717");
  EXPECT_EQ(Hex(EncodeEvaluateScenarioProgramRequest(
                SampleEvaluateScenarioProgram())),
            "5056414207180374656c0a534554202a203d20313b0105706c616e7306"
            "67726565647980200a73696d645f62617463680305");
  EXPECT_EQ(Hex(EncodeAppendRequest(SampleAppend())),
            "5056414207190374656c03010051");
  EXPECT_EQ(Hex(EncodeResponse(SampleResponse())),
            "50564142072018050f6e6f20616465717561746520565653010280804080"
            "80802005060708090a0b0c0d0e0f10111213959aef3a15161718e0126f01"
            "0101b40a6201087b545f726f6f747dac0802000000000000f83f00000000"
            "000004c002e01200ac086202036f7074024450150470726f78000a036a69"
            "7402036a6974037838360dac02056e61697665000608e8070103e70700a5"
            "03020000000000e05540000000000000f4bf");
}

// ----------------------------------------------------------- round trips --

TEST(WireProtocolTest, LoadRequestRoundTrip) {
  LoadRequest req;
  req.artifact = "telephony";
  req.polys_bytes = std::string("\x00\x01binary\xFF", 9);
  req.forests = {{"plans", "tree-bytes"}, {"months", ""}};
  auto decoded = DecodeLoadRequest(EncodeLoadRequest(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->artifact, req.artifact);
  EXPECT_EQ(decoded->polys_bytes, req.polys_bytes);
  ASSERT_EQ(decoded->forests.size(), 2u);
  EXPECT_EQ(decoded->forests[0].first, "plans");
  EXPECT_EQ(decoded->forests[0].second, "tree-bytes");
  EXPECT_EQ(decoded->forests[1].first, "months");
}

TEST(WireProtocolTest, AppendRequestRoundTrip) {
  AppendRequest req;
  req.artifact = "telephony";
  req.polys_bytes = std::string("\x00\x02more\xFE", 7);
  auto kind = PeekMessageKind(EncodeAppendRequest(req));
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, MessageKind::kAppendRequest);
  auto decoded = DecodeAppendRequest(EncodeAppendRequest(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->artifact, req.artifact);
  EXPECT_EQ(decoded->polys_bytes, req.polys_bytes);
}

TEST(WireProtocolTest, DeltaCountersAndPatchFlagRoundTrip) {
  Response resp;
  resp.stats.loop_wakeups = 5;  // Neighbors must not shift position.
  resp.stats.delta_patched = 21;
  resp.stats.delta_fallback_full = 4;
  resp.generation = 9;
  resp.delta_patched = true;
  resp.dedup_hit = false;
  auto decoded = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->stats.loop_wakeups, 5u);
  EXPECT_EQ(decoded->stats.delta_patched, 21u);
  EXPECT_EQ(decoded->stats.delta_fallback_full, 4u);
  EXPECT_EQ(decoded->generation, 9u);
  EXPECT_TRUE(decoded->delta_patched);
}

TEST(WireProtocolTest, CompressRequestRoundTrip) {
  CompressRequest req;
  req.artifact = "a";
  req.forest = "f";
  req.algo = "greedy";
  req.bound = 123456789;
  auto decoded = DecodeCompressRequest(EncodeCompressRequest(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->artifact, "a");
  EXPECT_EQ(decoded->forest, "f");
  EXPECT_EQ(decoded->algo, "greedy");
  EXPECT_EQ(decoded->bound, 123456789u);
}

TEST(WireProtocolTest, EvaluateRequestRoundTrip) {
  EvaluateRequest req;
  req.artifact = "a";
  req.assignments = {{"m1", 0.5}, {"plan7", -2.25}};
  req.compressed = true;
  req.forest = "plans";
  req.algo = "opt";
  req.bound = 1500;
  req.eval_backend = "simd_batch";
  auto decoded = DecodeEvaluateRequest(EncodeEvaluateRequest(req));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->assignments.size(), 2u);
  EXPECT_EQ(decoded->assignments[0].first, "m1");
  EXPECT_DOUBLE_EQ(decoded->assignments[0].second, 0.5);
  EXPECT_DOUBLE_EQ(decoded->assignments[1].second, -2.25);
  EXPECT_TRUE(decoded->compressed);
  EXPECT_EQ(decoded->forest, "plans");
  EXPECT_EQ(decoded->bound, 1500u);
  EXPECT_EQ(decoded->eval_backend, "simd_batch");

  // The default is the empty name — registry auto policy server-side.
  auto defaulted = DecodeEvaluateRequest(EncodeEvaluateRequest(EvaluateRequest{}));
  ASSERT_TRUE(defaulted.ok());
  EXPECT_TRUE(defaulted->eval_backend.empty());
}

TEST(WireProtocolTest, EvaluateScenarioProgramRequestRoundTrip) {
  EvaluateScenarioProgramRequest req;
  req.artifact = "telephony";
  req.program = "LET d = SWEEP(0.5 .. 1.0 STEP 0.1); SET PREFIX(plan) = d;";
  req.compressed = true;
  req.forest = "plans";
  req.algo = "greedy";
  req.bound = 4096;
  req.eval_backend = "simd_batch";
  req.shape = ScenarioShape::kTopK;
  req.top_k = 5;
  auto decoded = DecodeEvaluateScenarioProgramRequest(
      EncodeEvaluateScenarioProgramRequest(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->artifact, "telephony");
  EXPECT_EQ(decoded->program, req.program);
  EXPECT_TRUE(decoded->compressed);
  EXPECT_EQ(decoded->forest, "plans");
  EXPECT_EQ(decoded->algo, "greedy");
  EXPECT_EQ(decoded->bound, 4096u);
  EXPECT_EQ(decoded->eval_backend, "simd_batch");
  EXPECT_EQ(decoded->shape, ScenarioShape::kTopK);
  EXPECT_EQ(decoded->top_k, 5u);

  // Defaults: uncompressed, values shape, no top-k.
  auto defaulted = DecodeEvaluateScenarioProgramRequest(
      EncodeEvaluateScenarioProgramRequest(EvaluateScenarioProgramRequest{}));
  ASSERT_TRUE(defaulted.ok());
  EXPECT_FALSE(defaulted->compressed);
  EXPECT_EQ(defaulted->shape, ScenarioShape::kValues);
  EXPECT_EQ(defaulted->top_k, 0u);
}

TEST(WireProtocolTest, UnknownScenarioShapeByteRejected) {
  // With top_k = 0 the trailing varint is one byte, so the shape byte sits
  // second-from-last. A future shape (4) must be rejected by THIS decoder,
  // not silently reinterpreted.
  std::string encoded = EncodeEvaluateScenarioProgramRequest(
      EvaluateScenarioProgramRequest{});
  ASSERT_GE(encoded.size(), 2u);
  encoded[encoded.size() - 2] = 4;
  auto decoded = DecodeEvaluateScenarioProgramRequest(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("unknown scenario result shape"),
            std::string::npos)
      << decoded.status().message();
}

TEST(WireProtocolTest, ScenarioResponseRoundTrip) {
  Response resp;
  resp.request_kind = MessageKind::kEvaluateScenarioProgramRequest;
  resp.scenario_count = 1000;
  resp.program_cache_hit = true;
  resp.scenario_indices = {999, 0, 421};
  resp.objectives = {87.5, -1.25, 0.0};
  resp.values = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  resp.eval_backend = "compiled";
  // The batching/program-cache counters ride the same stats block.
  resp.stats.eval_groups = 17;
  resp.stats.eval_backend_calls = 34;
  resp.stats.program_count = 2;
  resp.stats.program_hits = 9;
  resp.stats.program_misses = 3;

  auto decoded = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->request_kind,
            MessageKind::kEvaluateScenarioProgramRequest);
  EXPECT_EQ(decoded->scenario_count, 1000u);
  EXPECT_TRUE(decoded->program_cache_hit);
  EXPECT_EQ(decoded->scenario_indices, (std::vector<uint64_t>{999, 0, 421}));
  ASSERT_EQ(decoded->objectives.size(), 3u);
  EXPECT_DOUBLE_EQ(decoded->objectives[0], 87.5);
  EXPECT_DOUBLE_EQ(decoded->objectives[1], -1.25);
  EXPECT_EQ(decoded->values.size(), 6u);
  EXPECT_EQ(decoded->stats.eval_groups, 17u);
  EXPECT_EQ(decoded->stats.eval_backend_calls, 34u);
  EXPECT_EQ(decoded->stats.program_count, 2u);
  EXPECT_EQ(decoded->stats.program_hits, 9u);
  EXPECT_EQ(decoded->stats.program_misses, 3u);
}

TEST(WireProtocolTest, TransportCounterRoundTrip) {
  // The wire-v6 transport counters (event-loop front end) ride the stats
  // block like every other counter and survive a round trip losslessly.
  Response resp;
  resp.request_kind = MessageKind::kInfoRequest;
  resp.stats.active_connections = 64;
  resp.stats.rejected_connections = 7;
  resp.stats.idle_reaped = 3;
  resp.stats.loop_wakeups = 123456789;
  resp.stats.program_misses = 2;  // Neighbors must not shift position.
  resp.stats.eval_batches = 11;

  auto decoded = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->stats.active_connections, 64u);
  EXPECT_EQ(decoded->stats.rejected_connections, 7u);
  EXPECT_EQ(decoded->stats.idle_reaped, 3u);
  EXPECT_EQ(decoded->stats.loop_wakeups, 123456789u);
  EXPECT_EQ(decoded->stats.program_misses, 2u);
  EXPECT_EQ(decoded->stats.eval_batches, 11u);
}

TEST(WireProtocolTest, UnavailableAndDeadlineStatusCodesRoundTrip) {
  Response resp;
  resp.request_kind = MessageKind::kInfoRequest;
  resp.code = StatusCode::kUnavailable;
  resp.message = "server at its connection limit (1024); retry later";
  auto decoded = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->code, StatusCode::kUnavailable);
  EXPECT_EQ(decoded->ToStatus().code(), StatusCode::kUnavailable);
  EXPECT_NE(decoded->message.find("connection limit"), std::string::npos);

  resp.code = StatusCode::kDeadlineExceeded;
  resp.message = "rpc read timed out after 500 ms";
  decoded = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, StatusCode::kDeadlineExceeded);
}

TEST(WireProtocolTest, ListBackendsResponseRoundTrip) {
  EXPECT_TRUE(DecodeListBackendsRequest(
                  EncodeListBackendsRequest(ListBackendsRequest{}))
                  .ok());

  Response resp;
  resp.request_kind = MessageKind::kListBackendsRequest;
  resp.backends = {{"compiled", "single-scenario CSR walk", false, true, 1, 1},
                   {"simd_batch", "SoA lanes, AVX2 when available", true,
                    true, 8, 2},
                   {"jit", "per-artifact native code", false, true, 1, 3}};
  auto decoded = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->backends.size(), 3u);
  EXPECT_EQ(decoded->backends[0].name, "compiled");
  EXPECT_EQ(decoded->backends[0].summary, "single-scenario CSR walk");
  EXPECT_FALSE(decoded->backends[0].vectorized);
  EXPECT_TRUE(decoded->backends[0].deterministic);
  EXPECT_EQ(decoded->backends[0].preferred_batch, 1u);
  EXPECT_EQ(decoded->backends[0].tier, 1u);
  EXPECT_EQ(decoded->backends[1].name, "simd_batch");
  EXPECT_TRUE(decoded->backends[1].vectorized);
  EXPECT_EQ(decoded->backends[1].preferred_batch, 8u);
  EXPECT_EQ(decoded->backends[1].tier, 2u);
  // Tier shares the flags byte (bits 2-3) with the bool bits; all four
  // combinations of (vectorized, tier) must survive the round trip.
  EXPECT_EQ(decoded->backends[2].name, "jit");
  EXPECT_FALSE(decoded->backends[2].vectorized);
  EXPECT_TRUE(decoded->backends[2].deterministic);
  EXPECT_EQ(decoded->backends[2].tier, 3u);
}

TEST(WireProtocolTest, EvalBackendEchoRoundTrip) {
  Response resp;
  resp.request_kind = MessageKind::kEvaluateRequest;
  resp.values = {2.0};
  resp.eval_backend = "naive";
  auto decoded = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->eval_backend, "naive");
}

TEST(WireProtocolTest, InfoTradeoffShutdownRoundTrip) {
  InfoRequest info;
  info.artifact = "x";
  auto info_decoded = DecodeInfoRequest(EncodeInfoRequest(info));
  ASSERT_TRUE(info_decoded.ok());
  EXPECT_EQ(info_decoded->artifact, "x");

  TradeoffRequest tradeoff;
  tradeoff.artifact = "x";
  tradeoff.forest = "plans";
  auto tradeoff_decoded =
      DecodeTradeoffRequest(EncodeTradeoffRequest(tradeoff));
  ASSERT_TRUE(tradeoff_decoded.ok());
  EXPECT_EQ(tradeoff_decoded->forest, "plans");

  EXPECT_TRUE(
      DecodeShutdownRequest(EncodeShutdownRequest(ShutdownRequest{})).ok());

  EXPECT_TRUE(
      DecodeListAlgosRequest(EncodeListAlgosRequest(ListAlgosRequest{}))
          .ok());
}

TEST(WireProtocolTest, ListAlgosResponseRoundTrip) {
  Response resp;
  resp.request_kind = MessageKind::kListAlgosRequest;
  resp.algos = {{"opt", "optimal single-tree DP", true, true, true, true,
                 true},
                {"prox", "pairwise-merge summarizer", true, false, false,
                 false, true},
                {"anneal", "simulated annealing", false, false, false,
                 true, false}};
  auto decoded = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->algos.size(), 3u);
  EXPECT_EQ(decoded->algos[0].name, "opt");
  EXPECT_EQ(decoded->algos[0].summary, "optimal single-tree DP");
  EXPECT_TRUE(decoded->algos[0].deterministic);
  EXPECT_TRUE(decoded->algos[0].supports_tradeoff);
  EXPECT_TRUE(decoded->algos[0].exact);
  EXPECT_TRUE(decoded->algos[0].produces_cut);
  EXPECT_TRUE(decoded->algos[0].supports_time_budget);
  EXPECT_EQ(decoded->algos[1].name, "prox");
  EXPECT_TRUE(decoded->algos[1].deterministic);
  EXPECT_FALSE(decoded->algos[1].supports_tradeoff);
  EXPECT_FALSE(decoded->algos[1].exact);
  EXPECT_FALSE(decoded->algos[1].produces_cut);
  EXPECT_TRUE(decoded->algos[1].supports_time_budget);
  EXPECT_EQ(decoded->algos[2].name, "anneal");
  EXPECT_FALSE(decoded->algos[2].deterministic);
  EXPECT_TRUE(decoded->algos[2].produces_cut);
  // A compressor that cannot enforce a wall-clock budget must say so on
  // the wire (flag bit 4), so remote callers reject --budget-ms up front.
  EXPECT_FALSE(decoded->algos[2].supports_time_budget);
}

TEST(WireProtocolTest, ResponseRoundTrip) {
  Response resp;
  resp.request_kind = MessageKind::kCompressRequest;
  resp.code = StatusCode::kInfeasible;
  resp.message = "no adequate VVS";
  resp.stats = {3, 7, 1 << 20, 1 << 26, 10, 4, 2, 5, 40, 15, 6};
  resp.generation = 12;
  resp.poly_count = 89;
  resp.monomial_count = 2400;
  resp.variable_count = 111;
  resp.cache_hit = true;
  resp.dedup_hit = true;
  resp.monomial_loss = 1332;
  resp.variable_loss = 98;
  resp.adequate = true;
  resp.vvs = "{T_root}";
  resp.compressed_monomials = 1068;
  resp.values = {1.5, -2.5, 0.0};
  resp.points = {{2400, 0}, {1068, 98}};

  auto decoded = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->request_kind, MessageKind::kCompressRequest);
  EXPECT_EQ(decoded->code, StatusCode::kInfeasible);
  EXPECT_EQ(decoded->message, "no adequate VVS");
  EXPECT_FALSE(decoded->ok());
  EXPECT_EQ(decoded->ToStatus().code(), StatusCode::kInfeasible);
  EXPECT_EQ(decoded->stats.artifact_count, 3u);
  EXPECT_EQ(decoded->stats.eval_requests, 40u);
  EXPECT_EQ(decoded->stats.dedup_hits, 15u);
  EXPECT_EQ(decoded->stats.inflight_waiters, 6u);
  EXPECT_EQ(decoded->generation, 12u);
  EXPECT_EQ(decoded->monomial_count, 2400u);
  EXPECT_TRUE(decoded->cache_hit);
  EXPECT_TRUE(decoded->dedup_hit);
  EXPECT_TRUE(decoded->adequate);
  EXPECT_EQ(decoded->vvs, "{T_root}");
  EXPECT_EQ(decoded->compressed_monomials, 1068u);
  ASSERT_EQ(decoded->values.size(), 3u);
  EXPECT_DOUBLE_EQ(decoded->values[1], -2.5);
  ASSERT_EQ(decoded->points.size(), 2u);
  EXPECT_EQ(decoded->points[1].size_m, 1068u);
  EXPECT_EQ(decoded->points[1].variable_loss, 98u);
}

// ----------------------------------------------------------- robustness --

TEST(WireProtocolTest, PeekMessageKind) {
  EXPECT_EQ(*PeekMessageKind(EncodeShutdownRequest(ShutdownRequest{})),
            MessageKind::kShutdownRequest);
  EXPECT_EQ(*PeekMessageKind(EncodeListAlgosRequest(ListAlgosRequest{})),
            MessageKind::kListAlgosRequest);
  EXPECT_EQ(
      *PeekMessageKind(EncodeListBackendsRequest(ListBackendsRequest{})),
      MessageKind::kListBackendsRequest);
  EXPECT_EQ(*PeekMessageKind(EncodeResponse(Response{})),
            MessageKind::kResponse);
  EXPECT_FALSE(PeekMessageKind("").ok());
  EXPECT_FALSE(PeekMessageKind("XVAB\x01\x10").ok());
  // Current header with an unknown kind byte / an artifact kind (1..4):
  // neither is a protocol message.
  std::string header = {'P', 'V', 'A', 'B', static_cast<char>(kWireVersion)};
  EXPECT_FALSE(PeekMessageKind(header + '\x7F').ok());
  EXPECT_FALSE(PeekMessageKind(header + '\x01').ok());
  // A stale protocol version is rejected by name, not misparsed.
  std::string stale = {'P', 'V', 'A', 'B', '\x01',
                       static_cast<char>(MessageKind::kInfoRequest)};
  EXPECT_FALSE(PeekMessageKind(stale).ok());
  EXPECT_FALSE(DecodeInfoRequest(stale).ok());
}

/// Every strict prefix of a valid message must decode to a clean Status
/// error — never a crash, never a bogus success. This is the wire-level
/// twin of the serializer truncation sweep.
TEST(WireProtocolTest, TruncationSweepAllMessages) {
  std::vector<Sample> cases = DeclaredSamples();
  for (size_t c = 0; c < cases.size(); ++c) {
    const std::string& full = cases[c].encoded;
    ASSERT_TRUE(cases[c].decode(full).ok()) << "case " << c;
    EXPECT_EQ(*PeekMessageKind(full), cases[c].kind) << "case " << c;
    for (size_t len = 0; len < full.size(); ++len) {
      EXPECT_FALSE(cases[c].decode(std::string_view(full).substr(0, len)).ok())
          << "case " << c << " prefix " << len;
    }
  }
}

/// Every byte of every sample overwritten with each of four values: the
/// decoder returns a value or a Status, never crashes, and never reserves
/// more than CheckCount allows. The largest decoded element, a pair of
/// strings, is 64 bytes for at least 2 wire bytes, so a reservation stays
/// within 32 bytes per payload byte; the bound below allows twice that.
TEST(WireProtocolTest, ByteMutationSweepAllMessages) {
  for (const Sample& sample : DeclaredSamples()) {
    const size_t bound = 64 * sample.encoded.size() + 64;
    for (size_t pos = 0; pos < sample.encoded.size(); ++pos) {
      for (unsigned char value : {0x00, 0x7F, 0x80, 0xFF}) {
        std::string mutated = sample.encoded;
        mutated[pos] = static_cast<char>(value);
        g_peak_allocation = 0;
        g_track_allocations = true;
        Status status = sample.decode(mutated);
        g_track_allocations = false;
        EXPECT_TRUE(status.ok() ||
                    status.code() == StatusCode::kInvalidArgument ||
                    status.code() == StatusCode::kOutOfRange)
            << Hex(mutated) << ": " << status.ToString();
        EXPECT_LE(g_peak_allocation.load(), bound)
            << Hex(mutated) << ": " << status.ToString();
      }
    }
  }
}

TEST(WireProtocolTest, TrailingBytesRejected) {
  for (const Sample& sample : DeclaredSamples()) {
    Status status = sample.decode(sample.encoded + '\0');
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << static_cast<int>(sample.kind) << ": " << status.ToString();
  }
  EXPECT_FALSE(
      DecodeCompressRequest(EncodeCompressRequest(SampleCompress()) + "GARBAGE")
          .ok());
  EXPECT_FALSE(
      DecodeResponse(EncodeResponse(SampleResponse()) + "\x01\x02").ok());
}

TEST(WireProtocolTest, ResponseRequestKindMustBeDeclared) {
  // Every declared kind decodes, kResponse included: the server answers
  // with it when it cannot read the request header.
  Response resp;
  for (const Sample& sample : DeclaredSamples()) {
    resp.request_kind = sample.kind;
    auto decoded = DecodeResponse(EncodeResponse(resp));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->request_kind, sample.kind);
  }
  // The request_kind byte follows the 6-byte header.
  for (int byte : {0, 1, 15, 26, 31, 33, 200}) {
    std::string encoded = EncodeResponse(resp);
    encoded[6] = static_cast<char>(byte);
    auto decoded = DecodeResponse(encoded);
    ASSERT_FALSE(decoded.ok()) << byte;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(WireProtocolTest, HostileElementCountRejectedBeforeAllocation) {
  // A hand-built evaluate request claiming 10^18 assignments must fail the
  // plausibility check, not attempt a monster reserve.
  ByteWriter w;
  w.PutBytes("PVAB", 4);
  w.PutU8(kWireVersion);
  w.PutU8(static_cast<uint8_t>(MessageKind::kEvaluateRequest));
  w.PutString("a");
  w.PutVarint(1'000'000'000'000'000'000ull);
  auto decoded = DecodeEvaluateRequest(std::move(w).Release());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireProtocolTest, WrongKindRejected) {
  std::string compress = EncodeCompressRequest(CompressRequest{});
  EXPECT_FALSE(DecodeLoadRequest(compress).ok());
  EXPECT_FALSE(DecodeResponse(compress).ok());
}

// -------------------------------------------------------------- framing --

class FramingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }
  int fds_[2] = {-1, -1};
};

TEST_F(FramingTest, FrameRoundTrip) {
  std::string payload("hello\x00world", 11);
  ASSERT_TRUE(WriteFrame(fds_[0], payload).ok());
  ASSERT_TRUE(WriteFrame(fds_[0], "").ok());
  auto first = ReadFrame(fds_[1]);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, payload);
  auto second = ReadFrame(fds_[1]);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->size(), 0u);
}

TEST_F(FramingTest, CleanCloseIsNotFound) {
  ::close(fds_[0]);
  fds_[0] = -1;
  auto frame = ReadFrame(fds_[1]);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kNotFound);
}

TEST_F(FramingTest, MidFrameEofIsOutOfRange) {
  // Length prefix promises 100 bytes; only 3 arrive before close.
  char header[4] = {100, 0, 0, 0};
  ASSERT_EQ(::write(fds_[0], header, 4), 4);
  ASSERT_EQ(::write(fds_[0], "abc", 3), 3);
  ::close(fds_[0]);
  fds_[0] = -1;
  auto frame = ReadFrame(fds_[1]);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kOutOfRange);
}

TEST_F(FramingTest, OversizedLengthPrefixRejected) {
  // 0xFFFFFFFF exceeds kMaxFrameBytes; rejected before any allocation.
  char header[4] = {'\xFF', '\xFF', '\xFF', '\xFF'};
  ASSERT_EQ(::write(fds_[0], header, 4), 4);
  auto frame = ReadFrame(fds_[1]);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace provabs
