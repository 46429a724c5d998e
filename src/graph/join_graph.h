// Join graphs (paper Definition 3): node- and edge-labeled undirected
// multigraphs describing one way of augmenting the provenance table with
// context relations. Node 0 is always the distinguished PT node.
//
// This header also owns the canonical materialization plan for a graph:
// PlanAptSteps orders edges breadth-first from the PT node (tree edges as
// joins, cycle-closing edges as post-join filters), and AptStepSignature
// renders one step as a canonical string. Signatures key the process-wide
// AptPrefixCache, so they must identify a step's *semantics* exactly: they
// include the node label (not just the relation name — #k occurrence
// suffixes depend on the rest of the graph), the schema condition, and the
// join direction. Two graphs share a cached join state iff their step
// signature prefixes match.
//
// Ownership and thread-safety: a JoinGraph is a plain value type holding
// indexes into the SchemaGraph it was enumerated from — it borrows nothing,
// but is only meaningful alongside that schema graph, which must outlive
// any use of DescribeEdges/PlanAptSteps. Construction (AddNode/AddEdge) is
// single-threaded; once built, graphs are immutable in practice and safe
// to read from many workers, which is how the per-graph Explain fan-out
// uses them. NULL semantics live downstream: the join steps planned here
// are executed by JoinBuildIndex probes, where NULL keys never match (not
// even NULL vs NULL, including middle columns of composite keys).

#ifndef CAJADE_GRAPH_JOIN_GRAPH_H_
#define CAJADE_GRAPH_JOIN_GRAPH_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/graph/schema_graph.h"

namespace cajade {

/// A node: either the PT node or an occurrence of a context relation.
struct JoinGraphNode {
  bool is_pt = false;
  std::string relation;  ///< empty for the PT node
  std::string label;     ///< "PT", or relation name (+ #k for repeats)
};

/// An edge: a schema-graph condition instantiated between two nodes.
struct JoinGraphEdge {
  int node_a = 0;
  int node_b = 0;
  int schema_edge = -1;    ///< index into SchemaGraph::edges()
  int condition = -1;      ///< index into that edge's condition list
  bool a_plays_left = true;  ///< node_a takes the rel_a side of the condition
  /// When an endpoint is the PT node: the query relation it binds to (the
  /// paper's per-alias parallel edges).
  std::string pt_relation;
};

/// \brief A join graph.
class JoinGraph {
 public:
  /// The trivial join graph: a single PT node, no edges (Omega_0).
  static JoinGraph PtOnly();

  const std::vector<JoinGraphNode>& nodes() const { return nodes_; }
  const std::vector<JoinGraphEdge>& edges() const { return edges_; }
  size_t num_edges() const { return edges_.size(); }

  /// Adds a context-relation node; returns its index. The label gets a #k
  /// suffix when the relation already occurs among the context nodes.
  int AddNode(const std::string& relation);

  void AddEdge(JoinGraphEdge edge) { edges_.push_back(std::move(edge)); }

  /// True if an identical (same endpoints, same schema condition) edge
  /// already exists.
  bool HasEdge(int node_a, int node_b, int schema_edge, int condition) const;

  /// Human-readable structure, e.g. "PT - player_game_stats - player".
  std::string Describe() const;

  /// Edge-by-edge description with join conditions resolved against `sg`.
  std::string DescribeEdges(const SchemaGraph& sg) const;

  /// Canonical string key identifying the graph up to node renaming; used to
  /// deduplicate graphs produced by different extension orders. Based on two
  /// rounds of Weisfeiler-Lehman label refinement, which distinguishes all
  /// shapes arising at the small sizes the enumerator explores.
  std::string CanonicalKey() const;

 private:
  std::vector<JoinGraphNode> nodes_;
  std::vector<JoinGraphEdge> edges_;
};

/// One APT materialization step: either a tree edge that joins `new_node`
/// into the partial result through `in_node`, or (both endpoints already
/// joined) a cycle-closing edge applied as a post-join filter.
struct AptStep {
  int edge = -1;  ///< index into JoinGraph::edges()
  bool cycle = false;
  int in_node = -1;   ///< tree edges: the endpoint already joined
  int new_node = -1;  ///< tree edges: the endpoint being joined in
};

/// \brief The deterministic step order of APT materialization.
struct AptPlan {
  std::vector<AptStep> steps;
  /// Node coverage after all steps; materialization rejects disconnected
  /// graphs (some node never joined).
  std::vector<bool> joined;
};

/// Orders `graph`'s edges into materialization steps: breadth-first from the
/// PT node, scanning edges in declaration order and taking every edge with at
/// least one joined endpoint per pass. The kernel-backed materializer, the
/// prefix-cache keys and the cost estimate (src/graph/cost.h) all derive
/// from it, which is what makes cached prefix states interchangeable with
/// freshly built ones; the scalar reference materializer keeps its own copy
/// of the loop as the differential oracle. InvalidArgument unless `graph`
/// has nodes, node 0 is the PT node, and every edge's endpoints, schema
/// edge and condition index into `graph` and `sg`. (No other node can be
/// the PT node, so no tree step re-joins it.)
Result<AptPlan> PlanAptSteps(const JoinGraph& graph, const SchemaGraph& sg);

/// Canonical signature of one materialization step, built from the
/// schema-level identity of the join (relation names, condition attribute
/// pairs in materialization orientation, PT-binding relation) plus the
/// node indexes it touches. Two join graphs whose leading steps share
/// signatures materialize identical intermediate states, so the
/// concatenation of leading signatures keys the APT prefix cache. Schema
/// content (not edge indexes) goes into the string, so signatures survive
/// schema-graph reindexing.
std::string AptStepSignature(const JoinGraph& graph, const SchemaGraph& sg,
                             const AptStep& step);

}  // namespace cajade

#endif  // CAJADE_GRAPH_JOIN_GRAPH_H_
