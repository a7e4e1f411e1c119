#include "ivm/explain.h"

#include <map>
#include <sstream>

#include "exec/evaluator.h"

namespace ojv {
namespace {

void AppendTermLine(std::ostringstream& out, const Term& term) {
  out << "  " << term.Label();
  if (!term.predicates.empty()) {
    out << "  where ";
    for (size_t i = 0; i < term.predicates.size(); ++i) {
      if (i > 0) out << " AND ";
      out << term.predicates[i]->ToString();
    }
  }
  out << "\n";
}

std::string NodeLabel(const RelExpr& node) {
  switch (node.kind()) {
    case RelKind::kScan:
      return "scan(" + node.table() + ")";
    case RelKind::kDeltaScan:
      return "delta_scan(" + node.table() + ")";
    case RelKind::kSelect:
      return "select " + node.predicate()->ToString();
    case RelKind::kProject:
      return "project";
    case RelKind::kJoin:
      return std::string("join[") + JoinKindName(node.join_kind()) + "]";
    case RelKind::kDedup:
      return "dedup";
    case RelKind::kSubsumeRemove:
      return "subsume-remove";
    case RelKind::kOuterUnion:
      return "outer-union";
    case RelKind::kMinUnion:
      return "min-union";
    case RelKind::kNullIf:
      return "null-if";
  }
  return "?";
}

/// Zips the post-order exec.* event sequence onto the plan tree: the
/// evaluator records each node's span after its work (children first),
/// so a post-order walk consuming events in order pairs them up. A name
/// mismatch stops consuming for that node, leaving it unannotated.
void ZipPlan(const RelExprPtr& node,
             const std::vector<const obs::TraceEvent*>& events, size_t* next,
             std::map<const RelExpr*, const obs::TraceEvent*>* stats) {
  for (const RelExprPtr& child : node->children()) {
    ZipPlan(child, events, next, stats);
  }
  if (*next < events.size() &&
      events[*next]->name == ExecSpanNameFor(node->kind())) {
    (*stats)[node.get()] = events[*next];
    ++*next;
  }
}

/// Renders a planner cardinality estimate compactly (they are floats but
/// read as row counts).
std::string FormatEst(double est) {
  if (est < 0) est = 0;
  std::ostringstream s;
  if (est >= 10 || est == static_cast<double>(static_cast<int64_t>(est))) {
    s << static_cast<int64_t>(est + 0.5);
  } else {
    s.precision(2);
    s << est;
  }
  return s.str();
}

/// Renders the plan tree, one node per line, with the planner's `est`
/// annotations and probe-join marks (`plan`, may be null) and the
/// measured `stats`.
void RenderAnnotatedPlan(
    const RelExprPtr& node,
    const std::map<const RelExpr*, const obs::TraceEvent*>& stats,
    const opt::PlannedDelta* plan, int depth, std::ostringstream& out) {
  out << std::string(4 + 2 * static_cast<size_t>(depth), ' ')
      << NodeLabel(*node);
  if (plan != nullptr) {
    auto eit = plan->node_est.find(node.get());
    if (eit != plan->node_est.end()) {
      out << "  (est=" << FormatEst(eit->second) << ")";
    }
    if (plan->probe_joins.count(node.get()) > 0) out << " probe";
  }
  auto it = stats.find(node.get());
  if (it != stats.end()) {
    const obs::TraceEvent& ev = *it->second;
    out << "  [rows=" << ev.ArgOr("rows_out", 0) << " t=" << ev.dur_micros
        << "us";
    for (const auto& [key, value] : ev.args) {
      if (key == "rows_out") continue;
      out << " " << key << "=" << value;
    }
    for (const auto& [key, value] : ev.str_args) {
      if (key == "table") continue;  // already in the label
      out << " " << key << "=" << value;
    }
    out << "]";
  }
  out << "\n";
  for (const RelExprPtr& child : node->children()) {
    RenderAnnotatedPlan(child, stats, plan, depth + 1, out);
  }
}

void AppendPlanEntryLine(std::ostringstream& out, const char* op,
                         const opt::PlanCacheEntry* entry) {
  if (entry == nullptr) return;
  out << "  plan[" << op << "]: order=["
      << (entry->plan.order.empty() ? "-" : entry->plan.order)
      << "] source=" << entry->source << " hits=" << entry->hits
      << " replans=" << entry->replans
      << (entry->plan.reordered ? " (reordered)" : " (static order)") << "\n";
  if (entry->plan.expr != nullptr && !entry->plan.node_est.empty()) {
    RenderAnnotatedPlan(entry->plan.expr, {}, &entry->plan, 0, out);
  }
}

}  // namespace

std::string ExplainNormalForm(const ViewMaintainer& maintainer) {
  std::ostringstream out;
  const std::vector<Term>& terms = maintainer.terms();
  out << "view " << maintainer.view_def().name() << " = "
      << maintainer.view_def().tree()->ToString() << "\n";
  out << "normal form (" << terms.size() << " terms):\n";
  for (const Term& term : terms) AppendTermLine(out, term);
  out << "subsumption graph:\n";
  std::string edges = maintainer.subsumption_graph().ToString(terms);
  std::istringstream lines(edges);
  std::string line;
  while (std::getline(lines, line)) out << "  " << line << "\n";
  return out.str();
}

std::string ExplainMaintenance(const ViewMaintainer& maintainer) {
  std::ostringstream out;
  out << ExplainNormalForm(maintainer);
  const std::vector<Term>& terms = maintainer.terms();

  for (const std::string& table : maintainer.view_def().tables()) {
    out << "\non update of " << table << ":\n";
    if (maintainer.DeltaIsEmpty(table)) {
      out << "  no-op: every directly affected term is protected by a\n"
          << "  foreign key (Theorem 3); the view cannot change.\n";
      continue;
    }
    const MaintenanceGraph& graph = maintainer.maintenance_graph(table);
    out << "  directly affected:";
    for (int i : graph.DirectTerms()) {
      out << " " << terms[static_cast<size_t>(i)].Label();
    }
    out << "\n";
    const RelExprPtr& delta = maintainer.delta_expr(table);
    out << "  primary delta  = " << delta->ToString() << "\n";
    out << "  planner: cost-based\n";
    AppendPlanEntryLine(
        out, "insert",
        maintainer.plan_entry(table, /*is_insert=*/true, PlanPolicy::kDefault));
    AppendPlanEntryLine(
        out, "delete",
        maintainer.plan_entry(table, /*is_insert=*/false,
                              PlanPolicy::kDefault));
    if (delta->kind() == RelKind::kDeltaScan ||
        (delta->kind() == RelKind::kSelect &&
         delta->input()->kind() == RelKind::kDeltaScan)) {
      out << "  fast path: the delta expression is the (filtered) delta\n"
          << "  itself; no joins are needed.\n";
    }
    if (graph.IndirectTerms().empty()) {
      out << "  secondary delta: none (no indirectly affected terms)\n";
    } else {
      out << "  secondary delta (orphan clean-up):\n";
      for (int i : graph.IndirectTerms()) {
        out << "    " << terms[static_cast<size_t>(i)].Label()
            << " orphans, via directly affected parent(s)";
        for (int parent : graph.DirectParents(i)) {
          out << " " << terms[static_cast<size_t>(parent)].Label();
        }
        out << "\n";
      }
    }
  }
  return out.str();
}

std::string ExplainMaintenance(const ViewMaintainer& maintainer,
                               const obs::TraceContext& trace) {
  std::ostringstream out;
  out << ExplainMaintenance(maintainer);

  std::vector<obs::TraceEvent> events = trace.Snapshot();
  std::vector<std::vector<size_t>> children(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].parent >= 0) {
      children[static_cast<size_t>(events[i].parent)].push_back(i);
    }
  }

  const std::string& view_name = maintainer.view_def().name();
  int invocation = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& root = events[i];
    if (root.name != "ivm.maintain") continue;
    const std::string* view = root.StrArg("view");
    if (view == nullptr || *view != view_name) continue;
    const std::string* table = root.StrArg("table");
    const std::string* op = root.StrArg("op");
    const std::string* policy = root.StrArg("policy");
    ++invocation;
    if (invocation == 1) out << "\nmeasured maintenance (from trace):\n";
    out << "\n[" << invocation << "] " << (op != nullptr ? *op : "?") << " of "
        << root.ArgOr("delta_rows", 0) << " row(s) into "
        << (table != nullptr ? *table : "?") << "  (total " << root.dur_micros
        << "us, rows_out=" << root.ArgOr("rows_out", 0) << ")\n";
    if (const std::string* skipped = root.StrArg("skipped")) {
      out << "  skipped: " << *skipped << "\n";
    }
    if (const std::string* source = root.StrArg("plan_source")) {
      const std::string* order = root.StrArg("join_order");
      out << "  plan: order=["
          << (order != nullptr && !order->empty() ? *order : "-")
          << "] source=" << *source
          << (root.ArgOr("reordered", 0) != 0 ? " (reordered)"
                                              : " (static order)")
          << "\n";
    }

    for (size_t c : children[i]) {
      const obs::TraceEvent& stage = events[c];
      if (stage.name == "ivm.primary_delta") {
        out << "  primary delta: " << stage.dur_micros
            << "us, rows_in=" << stage.ArgOr("rows_in", 0)
            << ", rows_out=" << stage.ArgOr("rows_out", 0) << "\n";
        std::vector<const obs::TraceEvent*> execs;
        for (size_t e : children[c]) {
          if (events[e].category == "exec") execs.push_back(&events[e]);
        }
        if (!execs.empty() && table != nullptr &&
            !maintainer.DeltaIsEmpty(*table)) {
          // Prefer the planner-chosen expression this invocation actually
          // executed (cached per table/op/policy); fall back to the
          // static delta tree. A plan that was since replaced zips with
          // mismatches, which the counter below surfaces.
          const PlanPolicy pp = policy != nullptr && *policy == "cf"
                                    ? PlanPolicy::kConstraintFree
                                    : PlanPolicy::kDefault;
          const opt::PlanCacheEntry* entry =
              op != nullptr
                  ? maintainer.plan_entry(*table, *op == "insert", pp)
                  : nullptr;
          const RelExprPtr& plan = entry != nullptr && entry->plan.expr != nullptr
                                       ? entry->plan.expr
                                       : maintainer.delta_expr(*table);
          size_t next = 0;
          std::map<const RelExpr*, const obs::TraceEvent*> stats;
          ZipPlan(plan, execs, &next, &stats);
          RenderAnnotatedPlan(plan, stats,
                              entry != nullptr ? &entry->plan : nullptr, 0,
                              out);
          if (next != execs.size()) {
            out << "    (" << execs.size() - next
                << " exec span(s) not matched to this plan — a different\n"
                   "    plan policy or a batched rewrite was in effect)\n";
          }
        }
      } else if (stage.name == "ivm.apply") {
        out << "  apply: " << stage.dur_micros
            << "us, rows=" << stage.ArgOr("rows", 0) << "\n";
      } else if (stage.name == "ivm.secondary_delta") {
        out << "  secondary delta: " << stage.dur_micros
            << "us, rows=" << stage.ArgOr("rows", 0) << "\n";
      } else if (stage.name == "ivm.secondary_delta.skipped") {
        const std::string* reason = stage.StrArg("reason");
        out << "  secondary delta: skipped ("
            << (reason != nullptr ? *reason : "?") << ")\n";
      } else if (stage.name == "ivm.secondary.strategy") {
        const std::string* strategy = stage.StrArg("strategy");
        out << "  secondary strategy: "
            << (strategy != nullptr ? *strategy : "?") << "\n";
      }
    }
  }
  if (invocation == 0) {
    out << "\nmeasured maintenance: no ivm.maintain spans for this view in"
           " the trace\n";
  }
  return out.str();
}

}  // namespace ojv
