#include "src/graph/join_graph.h"

#include <algorithm>
#include <functional>
#include <map>

#include "src/common/string_util.h"

namespace cajade {

JoinGraph JoinGraph::PtOnly() {
  JoinGraph g;
  g.nodes_.push_back({true, "", "PT"});
  return g;
}

int JoinGraph::AddNode(const std::string& relation) {
  int occurrence = 0;
  for (const auto& n : nodes_) {
    if (!n.is_pt && n.relation == relation) ++occurrence;
  }
  std::string label = relation;
  if (occurrence > 0) label += "#" + std::to_string(occurrence + 1);
  nodes_.push_back({false, relation, label});
  return static_cast<int>(nodes_.size() - 1);
}

bool JoinGraph::HasEdge(int node_a, int node_b, int schema_edge,
                        int condition) const {
  for (const auto& e : edges_) {
    bool same_nodes = (e.node_a == node_a && e.node_b == node_b) ||
                      (e.node_a == node_b && e.node_b == node_a);
    if (same_nodes && e.schema_edge == schema_edge && e.condition == condition) {
      return true;
    }
  }
  return false;
}

std::string JoinGraph::Describe() const {
  if (edges_.empty()) return "PT";
  // Render a BFS spanning walk from PT.
  std::vector<std::string> parts = {"PT"};
  std::vector<bool> visited(nodes_.size(), false);
  visited[0] = true;
  std::vector<int> frontier = {0};
  while (!frontier.empty()) {
    int v = frontier.front();
    frontier.erase(frontier.begin());
    for (const auto& e : edges_) {
      int other = -1;
      if (e.node_a == v && !visited[e.node_b]) other = e.node_b;
      if (e.node_b == v && !visited[e.node_a]) other = e.node_a;
      if (other >= 0) {
        visited[other] = true;
        parts.push_back(nodes_[other].label);
        frontier.push_back(other);
      }
    }
  }
  return Join(parts, " - ");
}

std::string JoinGraph::DescribeEdges(const SchemaGraph& sg) const {
  std::vector<std::string> parts;
  for (const auto& e : edges_) {
    const SchemaEdge& se = sg.edges()[e.schema_edge];
    const JoinConditionDef& cond = se.conditions[e.condition];
    std::string left = nodes_[e.a_plays_left ? e.node_a : e.node_b].label;
    std::string right = nodes_[e.a_plays_left ? e.node_b : e.node_a].label;
    parts.push_back(cond.ToString(left, right));
  }
  return Join(parts, " ");
}

Result<AptPlan> PlanAptSteps(const JoinGraph& graph, const SchemaGraph& sg) {
  const size_t num_nodes = graph.nodes().size();
  if (num_nodes == 0 || !graph.nodes()[0].is_pt) {
    return Status::InvalidArgument("join graph must start with the PT node");
  }
  auto in_range = [](int i, size_t n) {
    return i >= 0 && static_cast<size_t>(i) < n;
  };
  for (const JoinGraphEdge& e : graph.edges()) {
    if (!in_range(e.node_a, num_nodes) || !in_range(e.node_b, num_nodes)) {
      return Status::InvalidArgument(
          Format("join graph edge %d - %d names a node outside [0, %zu)",
                 e.node_a, e.node_b, num_nodes));
    }
    if (!in_range(e.schema_edge, sg.edges().size())) {
      return Status::InvalidArgument(Format(
          "join graph edge names schema edge %d of %zu", e.schema_edge,
          sg.edges().size()));
    }
    const size_t num_conditions = sg.edges()[e.schema_edge].conditions.size();
    if (!in_range(e.condition, num_conditions)) {
      return Status::InvalidArgument(Format(
          "join graph edge names condition %d of schema edge %d, which has %zu",
          e.condition, e.schema_edge, num_conditions));
    }
  }
  AptPlan plan;
  plan.joined.assign(graph.nodes().size(), false);
  plan.joined[0] = true;  // node 0 is the PT node
  std::vector<bool> edge_done(graph.edges().size(), false);
  // Mirrors the materializer's original loop exactly: repeated passes over
  // the edge list in declaration order, taking every edge with a joined
  // endpoint, with tree edges extending the frontier mid-pass.
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t ei = 0; ei < graph.edges().size(); ++ei) {
      if (edge_done[ei]) continue;
      const JoinGraphEdge& e = graph.edges()[ei];
      const bool a_in = plan.joined[e.node_a];
      const bool b_in = plan.joined[e.node_b];
      if (!a_in && !b_in) continue;
      edge_done[ei] = true;
      progress = true;
      AptStep step;
      step.edge = static_cast<int>(ei);
      if (a_in && b_in) {
        step.cycle = true;
      } else {
        step.in_node = a_in ? e.node_a : e.node_b;
        step.new_node = a_in ? e.node_b : e.node_a;
        plan.joined[step.new_node] = true;
      }
      plan.steps.push_back(step);
    }
  }
  return plan;
}

std::string AptStepSignature(const JoinGraph& graph, const SchemaGraph& sg,
                             const AptStep& step) {
  const JoinGraphEdge& e = graph.edges()[step.edge];
  const SchemaEdge& se = sg.edges()[e.schema_edge];
  const JoinConditionDef& cond = se.conditions[e.condition];
  std::string sig;
  if (step.cycle) {
    sig = Format("C%d:%d", e.node_a, e.node_b);
    for (const auto& p : cond.pairs) {
      const std::string& attr_a = e.a_plays_left ? p.left : p.right;
      const std::string& attr_b = e.a_plays_left ? p.right : p.left;
      sig += Format(";%s=%s", attr_a.c_str(), attr_b.c_str());
    }
  } else {
    // Both relation and label: the label carries the #k occurrence suffix
    // that names the joined-in columns, and it depends on *other* nodes of
    // the graph — two graphs may agree on (node index, relation) for every
    // leading step yet label them apart.
    sig = Format("T%d:%d=%s/%s", step.in_node, step.new_node,
                 graph.nodes()[step.new_node].relation.c_str(),
                 graph.nodes()[step.new_node].label.c_str());
    const bool in_is_left = (step.in_node == e.node_a) == e.a_plays_left;
    for (const auto& p : cond.pairs) {
      const std::string& in_attr = in_is_left ? p.left : p.right;
      const std::string& new_attr = in_is_left ? p.right : p.left;
      sig += Format(";%s=%s", in_attr.c_str(), new_attr.c_str());
    }
  }
  // The PT binding changes which PT columns the condition resolves to.
  sig += Format("@%s", e.pt_relation.c_str());
  return sig;
}

std::string JoinGraph::CanonicalKey() const {
  // Initial labels: PT marker or relation name.
  std::vector<std::string> labels(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    labels[i] = nodes_[i].is_pt ? "@PT:" + nodes_[i].relation : nodes_[i].relation;
  }
  // Edge signature relative to a node, independent of orientation.
  auto edge_sig = [&](const JoinGraphEdge& e, bool from_a,
                      const std::vector<std::string>& lab) {
    int other = from_a ? e.node_b : e.node_a;
    bool this_left = from_a ? e.a_plays_left : !e.a_plays_left;
    return Format("e%d.%d%c%s|%s", e.schema_edge, e.condition,
                  this_left ? 'L' : 'R', e.pt_relation.c_str(),
                  lab[other].c_str());
  };
  // Two rounds of WL refinement.
  for (int round = 0; round < 2; ++round) {
    std::vector<std::string> next(nodes_.size());
    for (size_t i = 0; i < nodes_.size(); ++i) {
      std::vector<std::string> sigs;
      for (const auto& e : edges_) {
        if (e.node_a == static_cast<int>(i)) sigs.push_back(edge_sig(e, true, labels));
        if (e.node_b == static_cast<int>(i)) sigs.push_back(edge_sig(e, false, labels));
      }
      std::sort(sigs.begin(), sigs.end());
      next[i] = labels[i] + "{" + Join(sigs, ",") + "}";
    }
    labels = std::move(next);
  }
  // Canonical form: sorted multiset of refined edge signatures plus sorted
  // node labels.
  std::vector<std::string> edge_keys;
  for (const auto& e : edges_) {
    std::string a = edge_sig(e, true, labels);
    std::string b = edge_sig(e, false, labels);
    if (b < a) std::swap(a, b);
    edge_keys.push_back(labels[e.node_a] < labels[e.node_b]
                            ? labels[e.node_a] + "~" + a + "~" + b
                            : labels[e.node_b] + "~" + a + "~" + b);
  }
  std::sort(edge_keys.begin(), edge_keys.end());
  std::vector<std::string> node_keys = labels;
  std::sort(node_keys.begin(), node_keys.end());
  return Join(node_keys, ";") + "||" + Join(edge_keys, ";");
}

}  // namespace cajade
