#include "io/serializer.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "circuit/factorize.h"
#include "core/compiled_polynomial_set.h"
#include "core/valuation.h"
#include "io/byte_stream.h"
#include "workload/telephony.h"
#include "workload/tree_gen.h"

namespace provabs {
namespace {

// -------------------------------------------------------------- streams --

TEST(ByteStreamTest, VarintRoundTrip) {
  ByteWriter w;
  const uint64_t values[] = {0, 1, 127, 128, 300, 1ull << 32,
                             0xFFFFFFFFFFFFFFFFull};
  for (uint64_t v : values) w.PutVarint(v);
  ByteReader r(w.buffer());
  for (uint64_t v : values) {
    auto got = r.GetVarint();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(ByteStreamTest, DoubleRoundTrip) {
  ByteWriter w;
  w.PutDouble(3.14159);
  w.PutDouble(-0.0);
  ByteReader r(w.buffer());
  EXPECT_DOUBLE_EQ(*r.GetDouble(), 3.14159);
  EXPECT_DOUBLE_EQ(*r.GetDouble(), -0.0);
}

TEST(ByteStreamTest, StringRoundTrip) {
  ByteWriter w;
  w.PutString("hello");
  w.PutString("");
  ByteReader r(w.buffer());
  EXPECT_EQ(*r.GetString(), "hello");
  EXPECT_EQ(*r.GetString(), "");
}

TEST(ByteStreamTest, TruncationDetected) {
  ByteWriter w;
  w.PutDouble(1.0);
  std::string data = w.buffer().substr(0, 4);
  ByteReader r(data);
  EXPECT_FALSE(r.GetDouble().ok());
}

TEST(ByteStreamTest, TruncatedVarintDetected) {
  std::string data = "\xFF";  // Continuation bit set, nothing follows.
  ByteReader r(data);
  EXPECT_FALSE(r.GetVarint().ok());
}

TEST(ByteStreamTest, OversizedStringDetected) {
  ByteWriter w;
  w.PutVarint(1000);  // Claims 1000 bytes follow...
  w.PutU8('x');       // ...but only one does.
  ByteReader r(w.buffer());
  EXPECT_FALSE(r.GetString().ok());
}

// ---------------------------------------------------------- polynomials --

class SerializerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = MakeRunningExample(vars_);
    polys_ = RunRunningExampleQuery(ex_);
  }

  VariableTable vars_;
  RunningExample ex_;
  PolynomialSet polys_;
};

TEST_F(SerializerTest, PolynomialSetRoundTripSameTable) {
  std::string data = SerializePolynomialSet(polys_, vars_);
  auto parsed = DeserializePolynomialSet(data, vars_);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->count(), polys_.count());
  for (size_t i = 0; i < polys_.count(); ++i) {
    EXPECT_TRUE((*parsed)[i] == polys_[i]);
  }
}

TEST_F(SerializerTest, PolynomialSetRoundTripFreshTable) {
  // The reader's variable table assigns different ids; names must carry
  // the identity.
  std::string data = SerializePolynomialSet(polys_, vars_);
  VariableTable fresh;
  fresh.Intern("unrelated0");  // Skew the id space.
  fresh.Intern("unrelated1");
  auto parsed = DeserializePolynomialSet(data, fresh);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->SizeM(), polys_.SizeM());
  EXPECT_EQ(parsed->SizeV(), polys_.SizeV());
  // The p1·m1 coefficient survives the id remap.
  VariableId p1 = fresh.Find("p1");
  VariableId m1 = fresh.Find("m1");
  ASSERT_NE(p1, kInvalidVariable);
  bool found = false;
  for (const Polynomial& p : parsed->polynomials()) {
    for (const Monomial& m : p.monomials()) {
      if (m.Contains(p1) && m.Contains(m1)) {
        EXPECT_NEAR(m.coefficient(), 208.8, 1e-9);
        found = true;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(SerializerTest, EmptySetRoundTrip) {
  PolynomialSet empty;
  std::string data = SerializePolynomialSet(empty, vars_);
  auto parsed = DeserializePolynomialSet(data, vars_);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->count(), 0u);
}

TEST_F(SerializerTest, RejectsBadMagic) {
  std::string data = SerializePolynomialSet(polys_, vars_);
  data[0] = 'X';
  EXPECT_FALSE(DeserializePolynomialSet(data, vars_).ok());
}

TEST_F(SerializerTest, RejectsWrongKind) {
  AbstractionForest forest;
  forest.AddTree(MakeFigure2PlansTree(vars_));
  std::string data = SerializeForest(forest, vars_);
  EXPECT_FALSE(DeserializePolynomialSet(data, vars_).ok());
}

TEST_F(SerializerTest, RejectsTruncatedPayload) {
  std::string data = SerializePolynomialSet(polys_, vars_);
  for (size_t cut : {data.size() / 4, data.size() / 2, data.size() - 1}) {
    EXPECT_FALSE(
        DeserializePolynomialSet(std::string_view(data).substr(0, cut),
                                 vars_)
            .ok())
        << "cut at " << cut;
  }
}

/// A polynomial-set buffer of one monomial 1.0 * x^e1 * x^e2 * ..., with
/// its factors written exactly as listed: SerializePolynomialSet would
/// merge duplicate factors first.
std::string OneMonomialBytes(const std::vector<uint64_t>& exponents) {
  ByteWriter w;
  w.PutBytes("PVAB", 4);
  w.PutU8(1);  // format version
  w.PutU8(1);  // kind: polynomial set
  w.PutVarint(1);
  w.PutString("x");
  w.PutVarint(1);  // polynomials
  w.PutVarint(1);  // monomials
  w.PutDouble(1.0);
  w.PutVarint(exponents.size());
  for (uint64_t exp : exponents) {
    w.PutVarint(0);  // slot of x
    w.PutVarint(exp);
  }
  return std::move(w).Release();
}

// Compiled evaluation spends one slot entry and one multiplication per unit
// of degree, so the deserializer caps a monomial's total degree. The sum
// runs over the raw factor list: duplicate factors that each stay under
// the cap but sum over it are rejected, and so are exponents whose sum
// would wrap the 32-bit merge in Monomial.
TEST(SerializerDegreeCapTest, RejectsMonomialsAboveTheCap) {
  const std::vector<std::vector<uint64_t>> hostile = {
      {kMaxMonomialDegree + 1},
      {kMaxMonomialDegree / 2 + 1, kMaxMonomialDegree / 2},
      {1ull << 31, 1ull << 31},
      {2000000000},
      {~0ull},
  };
  for (const std::vector<uint64_t>& exponents : hostile) {
    VariableTable vars;
    auto parsed = DeserializePolynomialSet(OneMonomialBytes(exponents), vars);
    ASSERT_FALSE(parsed.ok()) << "first exponent " << exponents[0];
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(parsed.status().message(),
              "monomial degree exceeds the cap of 64");
  }
}

TEST(SerializerDegreeCapTest, AcceptsMonomialsAtTheCap) {
  EXPECT_EQ(kMaxMonomialDegree, 64u);
  for (const std::vector<uint64_t>& exponents :
       {std::vector<uint64_t>{kMaxMonomialDegree},
        std::vector<uint64_t>{40, 24}}) {
    VariableTable vars;
    auto parsed = DeserializePolynomialSet(OneMonomialBytes(exponents), vars);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_EQ(parsed->SizeM(), 1u);
    const Monomial& m = (*parsed)[0].monomials()[0];
    EXPECT_EQ(m.total_degree(), kMaxMonomialDegree);
    EXPECT_EQ(m.ExponentOf(vars.Find("x")), kMaxMonomialDegree);
    // One slot entry per multiplication.
    EXPECT_EQ(parsed->Compiled()->factor_count(), kMaxMonomialDegree);
  }
}

// --------------------------------------------------------------- forests --

TEST_F(SerializerTest, ForestRoundTrip) {
  AbstractionForest forest;
  forest.AddTree(MakeFigure2PlansTree(vars_));
  forest.AddTree(MakeFigure3MonthsTree(vars_, 12));
  std::string data = SerializeForest(forest, vars_);

  VariableTable fresh;
  auto parsed = DeserializeForest(data, fresh);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->tree_count(), 2u);
  EXPECT_EQ(parsed->tree(0).node_count(), forest.tree(0).node_count());
  EXPECT_EQ(parsed->tree(1).node_count(), forest.tree(1).node_count());
  EXPECT_EQ(parsed->tree(0).leaves().size(),
            forest.tree(0).leaves().size());
  EXPECT_TRUE(parsed->Validate().ok());
  // Structure preserved: SB still has two children named b1, b2.
  NodeRef sb = parsed->FindLabel(fresh.Find("SB"));
  ASSERT_NE(sb.tree, AbstractionForest::kInvalidTreeIndex);
  EXPECT_EQ(parsed->tree(sb.tree).node(sb.node).children.size(), 2u);
}

TEST_F(SerializerTest, ForestRejectsCorruptParentOrder) {
  AbstractionForest forest;
  forest.AddTree(MakeFigure2PlansTree(vars_));
  std::string data = SerializeForest(forest, vars_);
  // Flip a byte somewhere in the payload; the reader must error out, not
  // crash. (Exhaustive flip of every byte.)
  for (size_t i = 6; i < data.size(); ++i) {
    std::string corrupt = data;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x80);
    VariableTable fresh;
    auto parsed = DeserializeForest(corrupt, fresh);
    // Either a clean parse (the flip hit a name byte) or a clean error.
    if (parsed.ok()) {
      EXPECT_TRUE(parsed->Validate().ok());
    }
  }
}

// ------------------------------------------------------------------ VVS --

TEST_F(SerializerTest, VvsRoundTrip) {
  AbstractionForest forest;
  forest.AddTree(MakeFigure2PlansTree(vars_));
  ValidVariableSet vvs;
  vvs.Add(forest.FindLabel(vars_.Find("Business")));
  vvs.Add(forest.FindLabel(vars_.Find("Special")));
  vvs.Add(forest.FindLabel(vars_.Find("Standard")));
  std::string data = SerializeVvs(vvs, forest, vars_);

  auto parsed = DeserializeVvs(data, forest, vars_);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 3u);
  EXPECT_TRUE(parsed->Validate(forest).ok());
  EXPECT_EQ(parsed->ToString(forest, vars_), vvs.ToString(forest, vars_));
}

TEST_F(SerializerTest, VvsRejectsUnknownLabel) {
  AbstractionForest forest;
  forest.AddTree(MakeFigure2PlansTree(vars_));
  ValidVariableSet vvs;
  vvs.Add(forest.FindLabel(vars_.Find("Plans")));
  std::string data = SerializeVvs(vvs, forest, vars_);

  AbstractionForest other;
  other.AddTree(MakeFigure3MonthsTree(vars_, 12));
  auto parsed = DeserializeVvs(data, other, vars_);
  EXPECT_EQ(parsed.status().code(), StatusCode::kNotFound);
}

// ----------------------------------------------------------------- files --

TEST_F(SerializerTest, FileRoundTrip) {
  std::string data = SerializePolynomialSet(polys_, vars_);
  std::string path = ::testing::TempDir() + "/provabs_io_test.bin";
  ASSERT_TRUE(WriteFile(path, data).ok());
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
  std::remove(path.c_str());
}

TEST_F(SerializerTest, ReadMissingFileFails) {
  EXPECT_EQ(ReadFileToString("/nonexistent/provabs").status().code(),
            StatusCode::kNotFound);
}

// -------------------------------------------------------------- circuits --

TEST_F(SerializerTest, CircuitsRoundTrip) {
  std::vector<ProvenanceCircuit> circuits = FactorizeSet(polys_);
  std::string data = SerializeCircuits(circuits, vars_);

  VariableTable fresh;
  auto parsed = DeserializeCircuits(data, fresh);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), circuits.size());
  // Value-identical under a shared scenario (names carry identity).
  Valuation val_old;
  Valuation val_new;
  val_old.Set(vars_.Find("m3"), 0.8);
  val_new.Set(fresh.Find("m3"), 0.8);
  for (size_t i = 0; i < circuits.size(); ++i) {
    EXPECT_TRUE((*parsed)[i].Validate().ok());
    EXPECT_NEAR((*parsed)[i].Evaluate(val_new),
                circuits[i].Evaluate(val_old), 1e-9);
  }
}

TEST_F(SerializerTest, CircuitsRejectCorruptTopology) {
  std::vector<ProvenanceCircuit> circuits = FactorizeSet(polys_);
  std::string data = SerializeCircuits(circuits, vars_);
  // Flip every byte; the reader must return a Status or a valid parse.
  for (size_t i = 6; i < data.size(); ++i) {
    std::string corrupt = data;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x5A);
    VariableTable fresh;
    auto parsed = DeserializeCircuits(corrupt, fresh);
    if (parsed.ok()) {
      for (const ProvenanceCircuit& c : *parsed) {
        EXPECT_TRUE(c.Validate().ok());
      }
    }
  }
}

TEST_F(SerializerTest, EmptyCircuitListRoundTrip) {
  std::string data = SerializeCircuits({}, vars_);
  VariableTable fresh;
  auto parsed = DeserializeCircuits(data, fresh);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

// End-to-end deployment scenario: producer serializes provenance + forest
// + chosen VVS; analyst deserializes into a fresh table and evaluates.
TEST_F(SerializerTest, ProducerAnalystHandoff) {
  AbstractionForest forest;
  auto pruned = MakeFigure2PlansTree(vars_).PruneToPolynomials(polys_);
  ASSERT_TRUE(pruned.ok());
  forest.AddTree(std::move(pruned).value());
  ValidVariableSet roots = ValidVariableSet::AllRoots(forest);
  PolynomialSet compressed = roots.Apply(forest, polys_);

  std::string polys_buf = SerializePolynomialSet(compressed, vars_);
  std::string forest_buf = SerializeForest(forest, vars_);
  std::string vvs_buf = SerializeVvs(roots, forest, vars_);

  // Analyst side: fresh variable table.
  VariableTable analyst;
  auto a_forest = DeserializeForest(forest_buf, analyst);
  ASSERT_TRUE(a_forest.ok());
  auto a_polys = DeserializePolynomialSet(polys_buf, analyst);
  ASSERT_TRUE(a_polys.ok());
  auto a_vvs = DeserializeVvs(vvs_buf, *a_forest, analyst);
  ASSERT_TRUE(a_vvs.ok());
  EXPECT_TRUE(a_vvs->Validate(*a_forest).ok());
  EXPECT_EQ(a_polys->SizeM(), compressed.SizeM());
}

}  // namespace
}  // namespace provabs
