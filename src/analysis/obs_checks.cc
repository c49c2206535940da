/**
 * @file
 * Lint of the observability artifacts: `dmsmetrics v1` snapshots
 * (obs/metrics.h) and trace_event span exports (obs/trace.h). Like
 * every checker family, the audits re-derive their invariants from
 * first principles — summing histogram buckets instead of trusting
 * the count field, re-walking the span tree instead of trusting
 * the writer's nesting — so a bookkeeping bug in the metrics
 * registry or the tracer cannot certify its own output. The metrics
 * check also re-derives the compile service's and the network
 * front-end's accounting identities (which submit outcomes exist,
 * which worker outcomes can make up the difference), so the
 * service cannot certify its own counters either. Locations
 * carry the 1-based line of the offending metric line / span event
 * when the text is available.
 */

#include <cmath>
#include <optional>
#include <string_view>

#include "analysis/builtin_checks.h"
#include "analysis/lint_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/diag.h"
#include "support/strings.h"

namespace dms {
namespace lint {

namespace {

/**
 * 1-based line of metric @p name in the dmsmetrics text: the line
 * whose *second* token is the name (the first is the kind). 0 when
 * unknown. findNthKeyLine keys on the first token, which here is
 * just "counter"/"gauge"/"histogram" — hence the local walk.
 */
int
metricLine(const std::string *text, const std::string &name)
{
    if (text == nullptr)
        return 0;
    int line_no = 0;
    for (const std::string &line : split(*text, '\n')) {
        ++line_no;
        std::vector<std::string> tokens;
        for (const std::string &t : split(trim(line), ' ')) {
            if (!t.empty())
                tokens.push_back(t);
        }
        if (tokens.size() >= 2 && tokens[1] == name)
            return line_no;
    }
    return 0;
}

class MetricsConsistencyCheck final : public BuiltinCheck
{
  public:
    MetricsConsistencyCheck()
        : BuiltinCheck("obs.metrics-consistency",
                       "metrics snapshot satisfies the histogram "
                       "conservation laws and counter identities",
                       ArtifactKind::Metrics)
    {
    }

    bool
    applicable(const AnalysisInput &input) const override
    {
        return input.metrics != nullptr ||
               input.metricsText != nullptr;
    }

    void
    run(const AnalysisInput &input, DiagnosticSink &sink) const
        override
    {
        obs::MetricsSnapshot parsed;
        const obs::MetricsSnapshot *metrics = input.metrics;
        if (metrics == nullptr) {
            std::string error;
            if (!obs::metricsFromText(*input.metricsText, parsed,
                                      error)) {
                DiagLocation loc;
                std::string message;
                loc.line = splitErrorLine(error, message);
                sink.report(id(), Severity::Error, artifact(), loc,
                            message);
                return;
            }
            metrics = &parsed;
        }
        auto flag = [&](const std::string &name,
                        std::string message) {
            DiagLocation loc;
            loc.line = metricLine(input.metricsText, name);
            sink.report(id(), Severity::Error, artifact(), loc,
                        std::move(message));
        };

        // Conservation: a histogram's count field is the number of
        // recorded samples, and every sample lands in exactly one
        // bucket — the bucket counts must sum to it. A non-empty
        // histogram also carries a positive max.
        for (const auto &h : metrics->histograms) {
            std::uint64_t in_buckets = 0;
            for (const auto &bucket : h.hist.buckets)
                in_buckets += bucket.second;
            if (in_buckets != h.hist.count)
                flag(h.name,
                     strfmt("histogram '%s' count %llu but its "
                            "buckets hold %llu samples",
                            h.name.c_str(),
                            static_cast<unsigned long long>(
                                h.hist.count),
                            static_cast<unsigned long long>(
                                in_buckets)));
            if (h.hist.count == 0 &&
                (h.hist.sumMs != 0.0 || h.hist.maxMs != 0.0))
                flag(h.name,
                     strfmt("histogram '%s' has zero samples but "
                            "sum %.17g / max %.17g",
                            h.name.c_str(), h.hist.sumMs,
                            h.hist.maxMs));
        }

        // The counter identities below only hold between metrics
        // that are all in the snapshot; a hand-written snapshot
        // with some of them absent audits the rest.
        const auto counter = [metrics](std::string_view name)
            -> std::optional<std::uint64_t> {
            const auto *c = metrics->findCounter(name);
            if (c == nullptr)
                return std::nullopt;
            return c->value;
        };
        const auto gauge = [metrics](std::string_view name)
            -> std::optional<double> {
            const auto *g = metrics->findGauge(name);
            if (g == nullptr)
                return std::nullopt;
            return g->value;
        };
        const auto u = [](std::uint64_t v) {
            return static_cast<unsigned long long>(v);
        };

        // A latency sample exists per resolved request: the serve
        // histogram can never hold more samples than requests were
        // ever made (the snapshot reads the histogram first, so a
        // torn concurrent snapshot errs in the safe direction).
        const auto requests = counter("serve.requests");
        const auto *latency =
            metrics->findHistogram("serve.latency_ms");
        if (requests && latency != nullptr &&
            latency->hist.count > *requests)
            flag("serve.latency_ms",
                 strfmt("serve.latency_ms holds %llu samples but "
                        "only %llu requests were made",
                        u(latency->hist.count), u(*requests)));

        // Every submit reaches at most one exclusive outcome: hit,
        // coalesced, miss (queued, or shed after counting as a
        // miss), invalid or quarantined. A submit-path fault can
        // bypass them all and surface as a Failed/Expired
        // resolution instead, so the outcomes may undershoot
        // requests, but never by more than failed + expired, and
        // never overshoot.
        const auto hits = counter("serve.hits");
        const auto coalesced = counter("serve.coalesced");
        const auto misses = counter("serve.misses");
        const auto invalid = counter("serve.invalid");
        const auto quarantined = counter("serve.quarantined");
        const auto failed = counter("serve.failed");
        const auto expired = counter("serve.expired");
        if (requests && hits && coalesced && misses && invalid &&
            quarantined && failed && expired) {
            const std::uint64_t outcomes =
                *hits + *coalesced + *misses + *invalid +
                *quarantined;
            if (outcomes > *requests)
                flag("serve.requests",
                     strfmt("submit outcomes sum to %llu but only "
                            "%llu requests were made",
                            u(outcomes), u(*requests)));
            else if (*requests - outcomes > *failed + *expired)
                flag("serve.requests",
                     strfmt("%llu requests have no recorded "
                            "outcome (outcomes %llu + failed %llu "
                            "+ expired %llu cannot cover them)",
                            u(*requests - outcomes), u(outcomes),
                            u(*failed), u(*expired)));
        }

        // Shedding happens after the miss was counted: every shed
        // request is a subset of the misses.
        const auto shed = counter("serve.shed");
        if (shed && misses && *shed > *misses)
            flag("serve.shed",
                 strfmt("shed %llu exceeds misses %llu, but a "
                        "request is only shed after counting as a "
                        "miss",
                        u(*shed), u(*misses)));

        // The queue never holds more than its configured bound,
        // and never more than its recorded high-water mark.
        const auto depth = gauge("serve.queue_depth");
        const auto peak = gauge("serve.queue_depth_peak");
        const auto capacity = gauge("serve.queue_capacity");
        if (peak && capacity && *capacity > 0 && *peak > *capacity)
            flag("serve.queue_depth_peak",
                 strfmt("peak queue depth %g exceeds the configured "
                        "capacity %g",
                        *peak, *capacity));
        if (depth && peak && *depth > *peak)
            flag("serve.queue_depth",
                 strfmt("current queue depth %g exceeds the "
                        "recorded peak %g",
                        *depth, *peak));

        // Fault-injection pairs: a site only fires on a hit.
        for (const auto &c : metrics->counters) {
            const std::string suffix = ".fired";
            if (c.name.size() <= suffix.size() ||
                c.name.compare(c.name.size() - suffix.size(),
                               suffix.size(), suffix) != 0)
                continue;
            const std::string hits_name =
                c.name.substr(0, c.name.size() - suffix.size()) +
                ".hits";
            const auto *hits = metrics->findCounter(hits_name);
            if (hits != nullptr && c.value > hits->value)
                flag(c.name,
                     strfmt("%s %llu exceeds %s %llu",
                            c.name.c_str(),
                            static_cast<unsigned long long>(
                                c.value),
                            hits_name.c_str(),
                            static_cast<unsigned long long>(
                                hits->value)));
        }

        // Network front-end identities. Every framing reject is
        // both a counted request line and routed through the
        // service as an unparseable (invalid) request. Request
        // lines only exist on accepted connections, and every
        // counted line was read off the wire: at least its newline
        // byte is in net.bytes_in.
        const auto net_requests = counter("net.requests");
        const auto net_rejects = counter("net.framing_rejects");
        const auto net_connections = counter("net.connections");
        const auto net_bytes_in = counter("net.bytes_in");
        if (net_requests && net_rejects &&
            *net_rejects > *net_requests)
            flag("net.framing_rejects",
                 strfmt("framing rejects %llu exceed request "
                        "lines %llu",
                        u(*net_rejects), u(*net_requests)));
        if (net_rejects && invalid && *net_rejects > *invalid)
            flag("net.framing_rejects",
                 strfmt("framing rejects %llu exceed invalid "
                        "requests %llu, but every framing reject "
                        "is submitted as an invalid request",
                        u(*net_rejects), u(*invalid)));
        if (net_requests && net_connections && *net_requests > 0 &&
            *net_connections == 0)
            flag("net.requests",
                 strfmt("%llu request lines arrived over zero "
                        "connections",
                        u(*net_requests)));
        if (net_requests && net_bytes_in &&
            *net_bytes_in < *net_requests)
            flag("net.bytes_in",
                 strfmt("net bytes in %llu is below the request "
                        "line count %llu (every line carries at "
                        "least its newline)",
                        u(*net_bytes_in), u(*net_requests)));
    }
};

class TraceNestingCheck final : public BuiltinCheck
{
  public:
    TraceNestingCheck()
        : BuiltinCheck("obs.trace-nesting",
                       "trace spans form properly nested trees "
                       "with children inside their parents",
                       ArtifactKind::Trace)
    {
    }

    bool
    applicable(const AnalysisInput &input) const override
    {
        return input.traceSpans != nullptr ||
               input.traceText != nullptr;
    }

    void
    run(const AnalysisInput &input, DiagnosticSink &sink) const
        override
    {
        std::vector<std::vector<obs::TraceSpan>> parsed;
        const std::vector<std::vector<obs::TraceSpan>> *traces =
            input.traceSpans;
        if (traces == nullptr) {
            std::string error;
            if (!obs::tracesFromJson(*input.traceText, parsed,
                                     error)) {
                DiagLocation loc;
                std::string message;
                loc.line = splitErrorLine(error, message);
                sink.report(id(), Severity::Error, artifact(), loc,
                            message);
                return;
            }
            traces = &parsed;
        }

        // Span intervals print with microsecond precision to three
        // decimals; two independently rounded endpoints can
        // disagree by one printed unit.
        const double eps = 0.002;

        int tid = 0;
        for (const std::vector<obs::TraceSpan> &spans : *traces) {
            ++tid;
            for (size_t i = 0; i < spans.size(); ++i) {
                const obs::TraceSpan &span = spans[i];
                auto flag = [&](std::string message) {
                    DiagLocation loc;
                    loc.line = span.srcLine;
                    sink.report(id(), Severity::Error, artifact(),
                                loc, std::move(message));
                };
                if (span.durUs < 0.0) {
                    flag(strfmt("trace %d span %zu '%s' has "
                                "negative duration %.3f us",
                                tid, i, span.name.c_str(),
                                span.durUs));
                    continue;
                }
                if (span.parent < 0)
                    continue;
                // Span ids are open order: a parent is always
                // opened — and therefore indexed — before any of
                // its children.
                if (static_cast<size_t>(span.parent) >= i) {
                    flag(strfmt("trace %d span %zu '%s' claims "
                                "parent %d, which is not an "
                                "earlier span",
                                tid, i, span.name.c_str(),
                                span.parent));
                    continue;
                }
                const obs::TraceSpan &parent =
                    spans[static_cast<size_t>(span.parent)];
                const double child_end = span.startUs + span.durUs;
                const double parent_end =
                    parent.startUs + parent.durUs;
                if (span.startUs + eps < parent.startUs ||
                    child_end > parent_end + eps)
                    flag(strfmt(
                        "trace %d span %zu '%s' [%.3f, %.3f] "
                        "escapes its parent '%s' [%.3f, %.3f]",
                        tid, i, span.name.c_str(), span.startUs,
                        child_end, parent.name.c_str(),
                        parent.startUs, parent_end));
            }
        }
    }
};

} // namespace

void
registerObsChecks(CheckRegistry &registry)
{
    registry.add(std::make_unique<MetricsConsistencyCheck>());
    registry.add(std::make_unique<TraceNestingCheck>());
}

} // namespace lint
} // namespace dms
