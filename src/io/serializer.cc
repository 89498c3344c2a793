#include "io/serializer.h"

#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "io/byte_stream.h"

namespace provabs {

namespace {

constexpr char kMagic[4] = {'P', 'V', 'A', 'B'};
constexpr uint8_t kVersion = 1;
constexpr uint8_t kKindPolynomialSet = 1;
constexpr uint8_t kKindForest = 2;
constexpr uint8_t kKindVvs = 3;
constexpr uint8_t kKindCircuits = 4;

/// Collects the variables of a polynomial set in first-use order and
/// writes the dictionary; returns old-id -> dictionary-slot.
std::unordered_map<VariableId, uint64_t> WriteDictionary(
    ByteWriter& w, const std::vector<VariableId>& ids,
    const VariableTable& vars) {
  std::unordered_map<VariableId, uint64_t> slots;
  std::vector<VariableId> order;
  for (VariableId id : ids) {
    if (slots.emplace(id, slots.size()).second) order.push_back(id);
  }
  w.PutVarint(order.size());
  for (VariableId id : order) w.PutString(vars.NameOf(id));
  return slots;
}

void WriteHeader(ByteWriter& w, uint8_t kind) {
  w.PutBytes(kMagic, 4);
  w.PutU8(kVersion);
  w.PutU8(kind);
}

Status CheckHeader(ByteReader& r, uint8_t expected_kind) {
  for (char expected : kMagic) {
    auto byte = r.GetU8();
    if (!byte.ok()) return byte.status();
    if (static_cast<char>(*byte) != expected) {
      return Status::InvalidArgument("bad magic (not a provabs buffer)");
    }
  }
  auto version = r.GetU8();
  if (!version.ok()) return version.status();
  if (*version != kVersion) {
    return Status::InvalidArgument("unsupported format version");
  }
  auto kind = r.GetU8();
  if (!kind.ok()) return kind.status();
  if (*kind != expected_kind) {
    return Status::InvalidArgument("buffer holds a different artifact kind");
  }
  return Status::OK();
}

/// Validates that a parsed element count is plausible for the bytes left:
/// every element of the collection occupies at least `min_bytes` in the
/// buffer, so a larger count proves corruption — checked BEFORE reserving
/// memory (a fuzzer-found hardening; a corrupt count must not OOM).
Status CheckCount(uint64_t count, size_t min_bytes, const ByteReader& r) {
  if (count > r.remaining() / min_bytes + 1) {
    return Status::InvalidArgument("corrupt element count in buffer");
  }
  return Status::OK();
}

/// Reads the dictionary, interning each name; returns slot -> new id.
StatusOr<std::vector<VariableId>> ReadDictionary(ByteReader& r,
                                                 VariableTable& vars) {
  auto count = r.GetVarint();
  if (!count.ok()) return count.status();
  if (Status s = CheckCount(*count, 1, r); !s.ok()) return s;
  std::vector<VariableId> ids;
  ids.reserve(*count);
  for (uint64_t i = 0; i < *count; ++i) {
    auto name = r.GetString();
    if (!name.ok()) return name.status();
    ids.push_back(vars.Intern(*name));
  }
  return ids;
}

}  // namespace

std::string SerializePolynomialSet(const PolynomialSet& polys,
                                   const VariableTable& vars) {
  ByteWriter w;
  WriteHeader(w, kKindPolynomialSet);

  std::vector<VariableId> ids;
  for (const Polynomial& p : polys.polynomials()) {
    for (const Monomial& m : p.monomials()) {
      for (const Factor& f : m.factors()) ids.push_back(f.var);
    }
  }
  auto slots = WriteDictionary(w, ids, vars);

  w.PutVarint(polys.count());
  for (const Polynomial& p : polys.polynomials()) {
    w.PutVarint(p.SizeM());
    for (const Monomial& m : p.monomials()) {
      w.PutDouble(m.coefficient());
      w.PutVarint(m.factors().size());
      for (const Factor& f : m.factors()) {
        w.PutVarint(slots.at(f.var));
        w.PutVarint(f.exp);
      }
    }
  }
  return std::move(w).Release();
}

StatusOr<PolynomialSet> DeserializePolynomialSet(std::string_view data,
                                                 VariableTable& vars) {
  ByteReader r(data);
  Status header = CheckHeader(r, kKindPolynomialSet);
  if (!header.ok()) return header;
  auto dict = ReadDictionary(r, vars);
  if (!dict.ok()) return dict.status();

  auto poly_count = r.GetVarint();
  if (!poly_count.ok()) return poly_count.status();
  if (Status s = CheckCount(*poly_count, 1, r); !s.ok()) return s;
  PolynomialSet polys;
  for (uint64_t p = 0; p < *poly_count; ++p) {
    auto mono_count = r.GetVarint();
    if (!mono_count.ok()) return mono_count.status();
    // A serialized monomial is at least a double + factor count.
    if (Status s = CheckCount(*mono_count, 9, r); !s.ok()) return s;
    std::vector<Monomial> terms;
    terms.reserve(*mono_count);
    for (uint64_t m = 0; m < *mono_count; ++m) {
      auto coeff = r.GetDouble();
      if (!coeff.ok()) return coeff.status();
      auto factor_count = r.GetVarint();
      if (!factor_count.ok()) return factor_count.status();
      // A factor is at least two varint bytes.
      if (Status s = CheckCount(*factor_count, 2, r); !s.ok()) return s;
      std::vector<Factor> factors;
      factors.reserve(*factor_count);
      // Summed over the raw list, before Monomial merges duplicate
      // variables by adding their exponents in 32 bits; `degree` never
      // exceeds the cap, so the comparison cannot wrap.
      uint64_t degree = 0;
      for (uint64_t f = 0; f < *factor_count; ++f) {
        auto slot = r.GetVarint();
        if (!slot.ok()) return slot.status();
        if (*slot >= dict->size()) {
          return Status::InvalidArgument("factor references unknown slot");
        }
        auto exp = r.GetVarint();
        if (!exp.ok()) return exp.status();
        if (*exp == 0) {
          return Status::InvalidArgument("exponent out of range");
        }
        if (*exp > kMaxMonomialDegree - degree) {
          return Status::InvalidArgument(
              "monomial degree exceeds the cap of " +
              std::to_string(kMaxMonomialDegree));
        }
        degree += *exp;
        factors.push_back(
            Factor{(*dict)[*slot], static_cast<uint32_t>(*exp)});
      }
      terms.emplace_back(*coeff, std::move(factors));
    }
    polys.Add(Polynomial::FromMonomials(std::move(terms)));
  }
  return polys;
}

std::string SerializeForest(const AbstractionForest& forest,
                            const VariableTable& vars) {
  ByteWriter w;
  WriteHeader(w, kKindForest);

  std::vector<VariableId> ids;
  for (const AbstractionTree& t : forest.trees()) {
    for (NodeIndex n = 0; n < t.node_count(); ++n) {
      ids.push_back(t.node(n).label);
    }
  }
  auto slots = WriteDictionary(w, ids, vars);

  w.PutVarint(forest.tree_count());
  for (const AbstractionTree& t : forest.trees()) {
    w.PutVarint(t.node_count());
    // Nodes are in DFS pre-order; parents precede children, so storing
    // (label slot, parent+1) per node reconstructs the tree exactly.
    for (NodeIndex n = 0; n < t.node_count(); ++n) {
      w.PutVarint(slots.at(t.node(n).label));
      NodeIndex parent = t.node(n).parent;
      w.PutVarint(parent == kInvalidNode ? 0 : parent + 1ull);
    }
  }
  return std::move(w).Release();
}

StatusOr<AbstractionForest> DeserializeForest(std::string_view data,
                                              VariableTable& vars) {
  ByteReader r(data);
  Status header = CheckHeader(r, kKindForest);
  if (!header.ok()) return header;
  auto dict = ReadDictionary(r, vars);
  if (!dict.ok()) return dict.status();

  auto tree_count = r.GetVarint();
  if (!tree_count.ok()) return tree_count.status();
  if (Status s = CheckCount(*tree_count, 1, r); !s.ok()) return s;
  std::vector<AbstractionTree> trees;
  for (uint64_t t = 0; t < *tree_count; ++t) {
    auto node_count = r.GetVarint();
    if (!node_count.ok()) return node_count.status();
    if (*node_count == 0) {
      return Status::InvalidArgument("empty tree in forest buffer");
    }
    // A serialized node is at least two varint bytes.
    if (Status s = CheckCount(*node_count, 2, r); !s.ok()) return s;
    // First pass: collect (label, parent).
    std::vector<std::pair<VariableId, uint64_t>> proto;
    proto.reserve(*node_count);
    for (uint64_t n = 0; n < *node_count; ++n) {
      auto slot = r.GetVarint();
      if (!slot.ok()) return slot.status();
      if (*slot >= dict->size()) {
        return Status::InvalidArgument("node references unknown slot");
      }
      auto parent = r.GetVarint();
      if (!parent.ok()) return parent.status();
      if (n == 0) {
        if (*parent != 0) {
          return Status::InvalidArgument("first node must be the root");
        }
      } else if (*parent == 0 || *parent > n) {
        return Status::InvalidArgument(
            "node parent must precede it in pre-order");
      }
      proto.emplace_back((*dict)[*slot], *parent);
    }
    AbstractionTreeBuilder builder(vars);
    std::vector<NodeIndex> built(proto.size());
    built[0] = builder.AddRoot(vars.NameOf(proto[0].first));
    for (size_t n = 1; n < proto.size(); ++n) {
      built[n] = builder.AddChild(built[proto[n].second - 1],
                                  vars.NameOf(proto[n].first));
    }
    trees.push_back(std::move(builder).Build());
  }
  AbstractionForest forest(std::move(trees));
  Status valid = forest.Validate();
  if (!valid.ok()) return valid;
  return forest;
}

std::string SerializeVvs(const ValidVariableSet& vvs,
                         const AbstractionForest& forest,
                         const VariableTable& vars) {
  ByteWriter w;
  WriteHeader(w, kKindVvs);
  w.PutVarint(vvs.size());
  for (const NodeRef& ref : vvs.nodes()) {
    w.PutString(vars.NameOf(forest.tree(ref.tree).node(ref.node).label));
  }
  return std::move(w).Release();
}

StatusOr<ValidVariableSet> DeserializeVvs(std::string_view data,
                                          const AbstractionForest& forest,
                                          VariableTable& vars) {
  ByteReader r(data);
  Status header = CheckHeader(r, kKindVvs);
  if (!header.ok()) return header;
  auto count = r.GetVarint();
  if (!count.ok()) return count.status();
  if (Status s = CheckCount(*count, 1, r); !s.ok()) return s;
  ValidVariableSet vvs;
  for (uint64_t i = 0; i < *count; ++i) {
    auto name = r.GetString();
    if (!name.ok()) return name.status();
    VariableId label = vars.Find(*name);
    NodeRef ref = label == kInvalidVariable
                      ? NodeRef{AbstractionForest::kInvalidTreeIndex,
                                kInvalidNode}
                      : forest.FindLabel(label);
    if (ref.tree == AbstractionForest::kInvalidTreeIndex) {
      return Status::NotFound("VVS label '" + *name +
                              "' is not a node of the forest");
    }
    vvs.Add(ref);
  }
  return vvs;
}

std::string SerializeCircuits(const std::vector<ProvenanceCircuit>& circuits,
                              const VariableTable& vars) {
  ByteWriter w;
  WriteHeader(w, kKindCircuits);

  std::vector<VariableId> ids;
  for (const ProvenanceCircuit& c : circuits) {
    for (ProvenanceCircuit::GateId g = 0; g < c.gate_count(); ++g) {
      if (c.gate(g).kind == ProvenanceCircuit::GateKind::kVariable) {
        ids.push_back(c.gate(g).variable);
      }
    }
  }
  auto slots = WriteDictionary(w, ids, vars);

  w.PutVarint(circuits.size());
  for (const ProvenanceCircuit& c : circuits) {
    w.PutVarint(c.gate_count());
    w.PutVarint(c.output());
    for (ProvenanceCircuit::GateId g = 0; g < c.gate_count(); ++g) {
      const auto& gate = c.gate(g);
      w.PutU8(static_cast<uint8_t>(gate.kind));
      switch (gate.kind) {
        case ProvenanceCircuit::GateKind::kConstant:
          w.PutDouble(gate.constant);
          break;
        case ProvenanceCircuit::GateKind::kVariable:
          w.PutVarint(slots.at(gate.variable));
          break;
        case ProvenanceCircuit::GateKind::kAdd:
        case ProvenanceCircuit::GateKind::kMul:
          w.PutVarint(gate.children.size());
          for (ProvenanceCircuit::GateId child : gate.children) {
            w.PutVarint(child);
          }
          break;
      }
    }
  }
  return std::move(w).Release();
}

StatusOr<std::vector<ProvenanceCircuit>> DeserializeCircuits(
    std::string_view data, VariableTable& vars) {
  ByteReader r(data);
  Status header = CheckHeader(r, kKindCircuits);
  if (!header.ok()) return header;
  auto dict = ReadDictionary(r, vars);
  if (!dict.ok()) return dict.status();

  auto count = r.GetVarint();
  if (!count.ok()) return count.status();
  if (Status s = CheckCount(*count, 2, r); !s.ok()) return s;
  std::vector<ProvenanceCircuit> circuits;
  circuits.reserve(*count);
  for (uint64_t ci = 0; ci < *count; ++ci) {
    auto gates = r.GetVarint();
    if (!gates.ok()) return gates.status();
    // Every gate occupies at least 2 bytes (kind + payload).
    if (Status s = CheckCount(*gates, 2, r); !s.ok()) return s;
    auto output = r.GetVarint();
    if (!output.ok()) return output.status();
    if (*output >= *gates) {
      return Status::InvalidArgument("circuit output gate out of range");
    }
    ProvenanceCircuit circuit;
    for (uint64_t g = 0; g < *gates; ++g) {
      auto kind = r.GetU8();
      if (!kind.ok()) return kind.status();
      switch (static_cast<ProvenanceCircuit::GateKind>(*kind)) {
        case ProvenanceCircuit::GateKind::kConstant: {
          auto value = r.GetDouble();
          if (!value.ok()) return value.status();
          circuit.AddConstant(*value);
          break;
        }
        case ProvenanceCircuit::GateKind::kVariable: {
          auto slot = r.GetVarint();
          if (!slot.ok()) return slot.status();
          if (*slot >= dict->size()) {
            return Status::InvalidArgument("gate references unknown slot");
          }
          circuit.AddVariable((*dict)[*slot]);
          break;
        }
        case ProvenanceCircuit::GateKind::kAdd:
        case ProvenanceCircuit::GateKind::kMul: {
          auto arity = r.GetVarint();
          if (!arity.ok()) return arity.status();
          if (Status s = CheckCount(*arity, 1, r); !s.ok()) return s;
          std::vector<ProvenanceCircuit::GateId> children;
          children.reserve(*arity);
          for (uint64_t c = 0; c < *arity; ++c) {
            auto child = r.GetVarint();
            if (!child.ok()) return child.status();
            if (*child >= g) {
              return Status::InvalidArgument(
                  "gate child does not precede it");
            }
            children.push_back(
                static_cast<ProvenanceCircuit::GateId>(*child));
          }
          if (static_cast<ProvenanceCircuit::GateKind>(*kind) ==
              ProvenanceCircuit::GateKind::kAdd) {
            circuit.AddSum(std::move(children));
          } else {
            circuit.AddProduct(std::move(children));
          }
          break;
        }
        default:
          return Status::InvalidArgument("unknown gate kind");
      }
    }
    circuit.SetOutput(static_cast<ProvenanceCircuit::GateId>(*output));
    Status valid = circuit.Validate();
    if (!valid.ok()) return valid;
    circuits.push_back(std::move(circuit));
  }
  return circuits;
}

Status WriteFile(const std::string& path, std::string_view data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::NotFound("cannot open for writing: " + path);
  }
  size_t written = std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (written != data.size()) {
    return Status::Internal("short write to " + path);
  }
  return Status::OK();
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open for reading: " + path);
  }
  std::string data;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.append(buf, n);
  }
  std::fclose(f);
  return data;
}

}  // namespace provabs
