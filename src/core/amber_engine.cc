#include "core/amber_engine.h"

#include "core/factorized.h"
#include "core/matcher.h"
#include "core/query_plan.h"
#include "rdf/ntriples.h"
#include "util/amf.h"
#include "util/clock.h"
#include "util/fault_injector.h"
#include "util/thread_pool.h"

namespace amber {

namespace {
/// Streaming sink: translates rows via Mv^-1 and forwards them to the
/// caller's RowSink as the matcher finds them, deduplicating (DISTINCT) and
/// capping on delivered rows. The cap counts rows the consumer accepted,
/// so truncation means exactly "cap delivered".
class StreamingSink : public EmbeddingSink {
 public:
  StreamingSink(bool dedup, uint64_t cap, const RdfDictionaries& dicts,
                RowSink* out)
      : dedup_(dedup), cap_(cap), dicts_(dicts), out_(out) {}

  bool wants_rows() const override { return true; }
  bool OnRow(std::span<const VertexId> row) override {
    if (dedup_ && !seen_.insert(RowDedupKey(row)).second) return true;
    row_text_.clear();
    for (VertexId v : row) row_text_.emplace_back(dicts_.VertexToken(v));
    if (!out_->OnRow(row_text_)) {
      sink_stopped_ = true;
      return false;
    }
    ++delivered_;
    return cap_ == 0 || delivered_ < cap_;
  }
  bool OnCount(uint64_t) override { return true; }  // row mode only

  uint64_t delivered() const { return delivered_; }
  bool sink_stopped() const { return sink_stopped_; }

 private:
  bool dedup_;
  uint64_t cap_;
  const RdfDictionaries& dicts_;
  RowSink* out_;
  uint64_t delivered_ = 0;
  bool sink_stopped_ = false;
  std::vector<std::string> row_text_;  // reused across rows
  std::unordered_set<std::string> seen_;
};
}  // namespace

Result<AmberEngine> AmberEngine::Build(const std::vector<Triple>& triples,
                                       const BuildOptions& options) {
  Stopwatch sw;
  AMBER_ASSIGN_OR_RETURN(EncodedDataset dataset,
                         EncodedDataset::Encode(triples));
  double encode_s = sw.ElapsedSeconds();
  AmberEngine engine = FromEncoded(std::move(dataset), options);
  engine.timings_.encode_seconds = encode_s;
  return engine;
}

AmberEngine AmberEngine::FromEncoded(EncodedDataset dataset,
                                     const BuildOptions& options) {
  AmberEngine engine;
  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(
        static_cast<size_t>(options.num_threads));
  }
  Stopwatch sw;
  engine.graph_ = Multigraph::FromDataset(dataset, pool.get());
  engine.timings_.graph_seconds = sw.ElapsedSeconds();
  sw.Reset();
  engine.indexes_ = IndexSet::Build(
      engine.graph_, dataset.attribute_values,
      dataset.dictionaries.attr_predicates().size(), pool.get());
  engine.timings_.index_seconds = sw.ElapsedSeconds();
  engine.dicts_ = std::move(dataset.dictionaries);
  return engine;
}

Result<AmberEngine> AmberEngine::BuildFromFile(const std::string& path) {
  AMBER_ASSIGN_OR_RETURN(std::vector<Triple> triples,
                         NTriplesParser::ParseFile(path));
  return Build(triples);
}

Result<uint64_t> AmberEngine::Execute(
    const SelectQuery& query, const ExecOptions& options, ExecStats* stats,
    std::vector<std::vector<VertexId>>* materialize_into) {
  // Transient-fault site: chaos tests inject kUnavailable / allocation
  // pressure here; the serving layer's retry policy treats the injected
  // Status exactly like an organic engine failure.
  AMBER_RETURN_IF_ERROR(
      FaultInjector::Global().Inject(faults::kEngineExecute));
  Stopwatch sw;
  AMBER_ASSIGN_OR_RETURN(QueryGraph qg, QueryGraph::Build(query, dicts_));
  const uint64_t cap = EffectiveRowCap(query, options);

  uint64_t rows = 0;
  if (!qg.unsatisfiable()) {
    // Selectivity-aware ordering only when pushdown is on, so the
    // post-filter ablation measures residual evaluation under the paper's
    // plan, not a different plan.
    QueryPlan plan = PlanQuery(qg, options.plan,
                               options.use_value_index ? &indexes_.value
                                                       : nullptr,
                               graph_.NumVertices());

    Matcher matcher(graph_, indexes_, qg, plan, options);
    if (materialize_into != nullptr &&
        UseFactorizedForm(options.result_form, plan)) {
      // Factorized route to the same flat rows: collect the answer graph,
      // then expand lazily up to the cap. Row order and truncation match
      // the direct sinks by construction (docs/ARCHITECTURE.md,
      // "Factorized answer graphs").
      FactorizedBuilder builder(
          static_cast<uint32_t>(qg.projection().size()),
          BuildSlotList(qg.projection(), plan.is_core), qg.distinct(), cap);
      FactorizedSink fsink(&builder);
      AMBER_RETURN_IF_ERROR(
          matcher.Run(&fsink, stats, /*bag_multiplicity=*/!qg.distinct()));
      stats->rows_expanded += builder.rows_expanded();
      FactorizedResult fact = builder.Finish();
      stats->truncated = stats->truncated || fact.truncated;
      stats->bytes_factorized += fact.ByteSize();
      FactorizedResult::Cursor cur = fact.Expand();
      while ((cap == 0 || materialize_into->size() < cap) && cur.Next()) {
        materialize_into->emplace_back(cur.Row().begin(), cur.Row().end());
      }
      stats->rows_expanded += cur.rows_expanded();
      rows = materialize_into->size();
    } else if (materialize_into != nullptr) {
      if (qg.distinct()) {
        DistinctSink sink(/*keep_rows=*/true, cap);
        AMBER_RETURN_IF_ERROR(
            matcher.Run(&sink, stats, /*bag_multiplicity=*/false));
        *materialize_into = sink.TakeRows();
        rows = sink.count();
      } else {
        CollectingSink sink(cap);
        AMBER_RETURN_IF_ERROR(matcher.Run(&sink, stats));
        *materialize_into = std::move(sink.TakeRows());
        rows = materialize_into->size();
      }
    } else if (qg.distinct()) {
      DistinctSink sink(/*keep_rows=*/false, cap);
      AMBER_RETURN_IF_ERROR(
          matcher.Run(&sink, stats, /*bag_multiplicity=*/false));
      rows = sink.count();
    } else {
      CountingSink sink(cap);
      AMBER_RETURN_IF_ERROR(matcher.Run(&sink, stats));
      rows = sink.count();
    }
  }

  stats->rows = rows;
  stats->elapsed_ms = sw.ElapsedMillis();
  return rows;
}

Result<CountResult> AmberEngine::Count(const SelectQuery& query,
                                       const ExecOptions& options) {
  CountResult result;
  AMBER_ASSIGN_OR_RETURN(result.count,
                         Execute(query, options, &result.stats, nullptr));
  return result;
}

Result<MaterializedRows> AmberEngine::Materialize(const SelectQuery& query,
                                                  const ExecOptions& options) {
  MaterializedRows result;
  std::vector<std::vector<VertexId>> raw;
  AMBER_RETURN_IF_ERROR(
      Execute(query, options, &result.stats, &raw).status());

  // Recover variable names in projection order.
  AMBER_ASSIGN_OR_RETURN(QueryGraph qg, QueryGraph::Build(query, dicts_));
  for (uint32_t u : qg.projection()) {
    result.var_names.push_back(qg.vertices()[u].name);
  }
  result.rows.reserve(raw.size());
  for (const auto& row : raw) {
    result.rows.push_back(TranslateRow(row));
  }
  return result;
}

Result<FactorizedRows> AmberEngine::Factorize(const SelectQuery& query,
                                              const ExecOptions& options) {
  Stopwatch sw;
  AMBER_ASSIGN_OR_RETURN(QueryGraph qg, QueryGraph::Build(query, dicts_));
  const uint64_t cap = EffectiveRowCap(query, options);
  const uint32_t num_slots = static_cast<uint32_t>(qg.projection().size());

  FactorizedRows out;
  for (uint32_t u : qg.projection()) {
    out.var_names.push_back(qg.vertices()[u].name);
  }

  if (qg.unsatisfiable()) {
    out.result.num_slots = num_slots;
    out.result.slot_list.assign(num_slots, kNoGroupList);
    out.result.distinct = qg.distinct();
    out.result.row_limit = cap;
    out.stats.elapsed_ms = sw.ElapsedMillis();
    return out;
  }

  QueryPlan plan = PlanQuery(qg, options.plan,
                             options.use_value_index ? &indexes_.value
                                                     : nullptr,
                             graph_.NumVertices());

  if (!UseFactorizedForm(options.result_form, plan)) {
    // Flat-resolved form: run the ordinary row pipeline (which owns the
    // fault site) and wrap each resolved row as a singleton group, so
    // every form hands back a usable answer-graph handle.
    std::vector<std::vector<VertexId>> raw;
    AMBER_RETURN_IF_ERROR(
        Execute(query, options, &out.stats, &raw).status());
    FactorizedBuilder builder(num_slots,
                              std::vector<uint32_t>(num_slots, kNoGroupList),
                              /*distinct=*/false, /*cap=*/0);
    for (std::vector<VertexId>& row : raw) {
      FactorizedResult::Group grp;
      grp.fixed = std::move(row);
      builder.Add(std::move(grp));
    }
    out.result = builder.Finish();
    out.result.distinct = qg.distinct();
    out.result.row_limit = cap;
    out.result.truncated = out.stats.truncated;
    out.stats.groups_emitted += out.result.groups.size();
    out.stats.factorized_rows_represented = SaturatingAdd(
        out.stats.factorized_rows_represented, out.result.total_rows);
    out.stats.bytes_factorized += out.result.ByteSize();
    out.stats.elapsed_ms = sw.ElapsedMillis();
    return out;
  }

  // Factorized form: groups come straight from the matcher. This path does
  // not pass through Execute, so it owns the transient-fault site.
  AMBER_RETURN_IF_ERROR(
      FaultInjector::Global().Inject(faults::kEngineExecute));
  Matcher matcher(graph_, indexes_, qg, plan, options);
  FactorizedBuilder builder(num_slots,
                            BuildSlotList(qg.projection(), plan.is_core),
                            qg.distinct(), cap);
  FactorizedSink fsink(&builder);
  AMBER_RETURN_IF_ERROR(matcher.Run(&fsink, &out.stats,
                                    /*bag_multiplicity=*/!qg.distinct()));
  out.stats.rows_expanded += builder.rows_expanded();
  out.result = builder.Finish();
  out.stats.rows = cap == 0 ? out.result.total_rows
                            : std::min(out.result.total_rows, cap);
  out.stats.truncated = out.stats.truncated || out.result.truncated;
  out.stats.bytes_factorized += out.result.ByteSize();
  out.stats.elapsed_ms = sw.ElapsedMillis();
  return out;
}

Result<StreamResult> AmberEngine::Stream(const SelectQuery& query,
                                         const ExecOptions& options,
                                         RowSink* sink) {
  // Same fault site as Execute: a streamed request fails identically to a
  // materializing one under chaos schedules.
  AMBER_RETURN_IF_ERROR(
      FaultInjector::Global().Inject(faults::kEngineExecute));
  Stopwatch sw;
  AMBER_ASSIGN_OR_RETURN(QueryGraph qg, QueryGraph::Build(query, dicts_));
  const uint64_t cap = EffectiveRowCap(query, options);

  StreamResult out;
  for (uint32_t u : qg.projection()) {
    out.var_names.push_back(qg.vertices()[u].name);
  }

  if (!qg.unsatisfiable()) {
    QueryPlan plan = PlanQuery(qg, options.plan,
                               options.use_value_index ? &indexes_.value
                                                       : nullptr,
                               graph_.NumVertices());
    Matcher matcher(graph_, indexes_, qg, plan, options);
    StreamingSink ssink(qg.distinct(), cap, dicts_, sink);
    AMBER_RETURN_IF_ERROR(matcher.Run(&ssink, &out.stats,
                                      /*bag_multiplicity=*/!qg.distinct()));
    out.rows = ssink.delivered();
    out.sink_stopped = ssink.sink_stopped();
  }

  out.stats.rows = out.rows;
  // Uniform truncation semantics for streams: set exactly when the cap
  // stopped delivery (a sink stop or an interrupt is NOT a truncation).
  out.stats.truncated = cap != 0 && out.rows >= cap;
  out.stats.elapsed_ms = sw.ElapsedMillis();
  return out;
}

std::vector<std::string> AmberEngine::TranslateRow(
    std::span<const VertexId> row) const {
  std::vector<std::string> out;
  out.reserve(row.size());
  for (VertexId v : row) {
    out.emplace_back(dicts_.VertexToken(v));
  }
  return out;
}

Status AmberEngine::SaveFile(const std::string& path) const {
  amf::Writer writer;
  dicts_.SaveAmf(&writer);
  graph_.SaveAmf(&writer);
  indexes_.SaveAmf(&writer);
  return writer.WriteTo(path);
}

Result<AmberEngine> AmberEngine::OpenFile(const std::string& path) {
  AMBER_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path));
  auto mapping = std::make_shared<MappedFile>(std::move(file));
  AMBER_ASSIGN_OR_RETURN(amf::Reader reader,
                         amf::Reader::Open(mapping->data()));
  AmberEngine engine;
  AMBER_RETURN_IF_ERROR(engine.dicts_.LoadAmf(reader));
  AMBER_RETURN_IF_ERROR(engine.graph_.LoadAmf(reader));
  AMBER_RETURN_IF_ERROR(
      engine.indexes_.LoadAmf(reader, engine.graph_.NumVertices()));
  // Cross-component consistency: the indexes and dictionaries must cover
  // the graph's id spaces, or the first query indexes past their ends.
  if (engine.indexes_.neighborhood.NumVertices() !=
          engine.graph_.NumVertices() ||
      engine.indexes_.signature.NumVertices() !=
          engine.graph_.NumVertices()) {
    return Status::Corruption("index/graph vertex count mismatch");
  }
  if (engine.dicts_.vertices().size() < engine.graph_.NumVertices() ||
      engine.dicts_.edge_types().size() < engine.graph_.NumEdgeTypes() ||
      engine.dicts_.attributes().size() < engine.graph_.NumAttributes()) {
    return Status::Corruption("dictionary/graph id space mismatch");
  }
  if (engine.indexes_.value.NumAttributes() <
          engine.graph_.NumAttributes() ||
      engine.indexes_.value.NumPredicates() !=
          engine.dicts_.attr_predicates().size()) {
    return Status::Corruption("value index/dictionary id space mismatch");
  }
  engine.mapping_ = std::move(mapping);
  return engine;
}

}  // namespace amber
