/**
 * @file
 * Traced-run layer accounting. Spans are recorded here, in the
 * benchmark's own code, around calls into each layer's public
 * functions; the pipeline stages are the one exception, timed by
 * the span Pipeline::run opens per stage on the context's trace.
 * A layer's self time is its span's duration minus the time its
 * child spans cover.
 */

#include <filesystem>
#include <fstream>

#include "analysis/analyze.h"
#include "bench.h"
#include "codegen/emit.h"

namespace perfbench {

using namespace dms;

bool
shadowCompile(obs::Trace *trace, const Pipeline &pipeline,
              const Loop &loop, const MachineModel &machine,
              CompilationContext &ctx, LayerCounts &counts)
{
    ctx.trace = trace;
    const bool ok = pipeline.run(loop, machine, ctx);
    ctx.trace = nullptr;

    const SchedOutcome &sched = ctx.result.sched;
    ++counts.compiles;
    counts.opsOut += ctx.body.numOps();
    counts.copies += ctx.prepass.copiesInserted;
    counts.attempts += sched.attempts;
    counts.placements += sched.budgetUsed;
    counts.moves += sched.movesInserted;
    if (ok && sched.attempts == 1)
        ++counts.firstTry;
    if (!ok)
        return false;
    if (ctx.queuesValid)
        counts.queues +=
            static_cast<long>(ctx.queues.lifetimes.size());
    if (!ctx.kernelValid)
        return true;
    // The text emission the service adds after runLoop.
    obs::ScopedSpan span(trace, "codegen.emit");
    return !emitPipelinedCode(ctx.scheduledDdg(), machine, ctx.kernel,
                              ctx.queuesValid ? &ctx.queues : nullptr)
                .empty();
}

void
SpanTotals::add(const obs::Trace &trace)
{
    const std::vector<obs::TraceSpan> &spans = trace.spans();
    std::vector<double> childUs(spans.size(), 0.0);
    for (const obs::TraceSpan &s : spans) {
        if (s.parent >= 0)
            childUs[static_cast<size_t>(s.parent)] += s.durUs;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
        selfUs[spans[i].name] += spans[i].durUs - childUs[i];
        ++calls[spans[i].name];
    }
}

void
SpanTotals::merge(const SpanTotals &other)
{
    for (const auto &[name, us] : other.selfUs)
        selfUs[name] += us;
    for (const auto &[name, n] : other.calls)
        calls[name] += n;
}

void
TraceBook::add(std::shared_ptr<obs::Trace> trace)
{
    trace->finish();
    spans.add(*trace);
    ++recorded;
    if (kept.size() < kExportCap)
        kept.push_back(std::move(trace));
}

void
TraceBook::merge(const TraceBook &other)
{
    spans.merge(other.spans);
    recorded += other.recorded;
    for (const auto &t : other.kept)
        if (kept.size() < kExportCap)
            kept.push_back(t);
}

double
SpanTotals::meanUs(const std::vector<std::string> &names) const
{
    const auto n = calls.find(names.front());
    if (n == calls.end() || n->second == 0)
        return 0;
    return sumUs(names) / static_cast<double>(n->second);
}

double
SpanTotals::sumUs(const std::vector<std::string> &names) const
{
    double total = 0;
    for (const std::string &name : names) {
        const auto it = selfUs.find(name);
        if (it != selfUs.end())
            total += it->second;
    }
    return total;
}

void
addLayerMetrics(Outcome &out, const SpanTotals &spans,
                const LayerCounts &counts,
                const std::map<std::string, double> &extra)
{
    const auto span = [&](const char *metric,
                          std::vector<std::string> names) {
        out.add(metric, spans.meanUs(names), "us");
    };
    const auto given = [&](const char *metric, const char *unit) {
        const auto it = extra.find(metric);
        out.add(metric, it == extra.end() ? 0.0 : it->second, unit);
    };
    const double compiles =
        static_cast<double>(std::max<long>(counts.compiles, 1));
    const auto perCompile = [&](const char *metric, long total,
                                const char *unit) {
        out.add(metric,
                counts.compiles == 0
                    ? 0.0
                    : static_cast<double>(total) / compiles,
                unit);
    };

    span("net.request_encode_us", {"net.request_encode"});
    span("net.request_parse_us", {"net.request_parse"});
    span("net.result_encode_us", {"net.result_encode"});
    span("net.result_parse_us", {"net.result_parse"});
    given("net.request_bytes", "bytes");
    given("net.result_bytes", "bytes");
    given("net.transport_us", "us");

    span("desc.machine_parse_us", {"desc.machine_parse"});
    span("text.loop_parse_us", {"text.loop_parse"});
    span("text.loop_print_us", {"text.loop_print"});
    span("desc.machine_print_us", {"desc.machine_print"});
    span("sched.registry_us", {"sched.registry"});

    span("service.submit_us", {"service.submit"});
    span("service.wait_us", {"service.wait"});
    given("service.hit_ratio", "ratio");
    given("service.queue_peak", "count");
    span("service.stats_us", {"service.stats"});
    span("service.metrics_us", {"service.metrics"});

    given("cache.evictions_per_kreq", "count/kreq");
    span("cache.acquire_us", {"cache.acquire"});
    span("cache.find_us", {"cache.find"});

    // Pipeline::run's stage spans; with DMS_TRACE=1 the schedulers
    // add one sched.attempt child per II rung.
    span("unroll.us", {"unroll"});
    perCompile("unroll.ops_out", counts.opsOut, "count");
    span("prepass.us", {"prepass"});
    perCompile("prepass.copies", counts.copies, "count");
    span("mii.us", {"mii"});
    span("sched.us", {"schedule", "sched.attempt"});
    perCompile("sched.attempts", counts.attempts, "count");
    perCompile("sched.placements", counts.placements, "count");
    perCompile("sched.first_try_ratio", counts.firstTry, "ratio");
    perCompile("sched.moves", counts.moves, "count");
    span("regalloc.us", {"regalloc"});
    perCompile("regalloc.queues", counts.queues, "count");
    span("verifier.us", {"verify"});
    span("perf.us", {"perf"});
    span("codegen.kernel_us", {"codegen"});
    span("codegen.emit_us", {"codegen.emit"});

    given("runner.cell_us", "us");
    given("runner.cell_p99_us", "us");
    given("runner.parallel_efficiency", "ratio");

    given("residual_share", "ratio");
}

void
exportTraces(const Args &args, const TraceBook &book, Outcome &out)
{
    const std::string json = obs::tracesToJson(book.kept);
    std::filesystem::create_directories(args.traceDir);
    const std::string path =
        args.traceDir + "/" + args.workload + ".trace.json";
    std::ofstream(path, std::ios::binary) << json;

    DiagnosticSink sink;
    lintTraceText(json, path, sink);
    if (!sink.empty())
        out.problems.push_back("trace export does not lint clean:\n" +
                               sink.renderText());
    out.record["trace_file"] = path;
    out.record["traces_exported"] = std::to_string(book.kept.size());
    out.record["traces_recorded"] = std::to_string(book.recorded);
    out.record["trace_lint"] = sink.empty() ? "clean" : "findings";
}

} // namespace perfbench
