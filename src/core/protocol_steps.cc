#include "core/protocol_steps.h"

#include <algorithm>
#include <utility>

namespace repro::core {

namespace {

/** Seconds a finished span covered (0 for unfinished/untraced). */
double
spanSeconds(const obs::Span &span)
{
    return span.endNs > span.startNs
               ? static_cast<double>(span.endNs - span.startNs) * 1e-9
               : 0.0;
}

/** Compares @p spec against @p candidate block by block, when both are
 *  block-backed (legacy deep states keep the -1 "unknown" defaults). */
obs::AbortComparison
compareCandidate(const State &spec, const State &candidate, int identity)
{
    obs::AbortComparison cmp;
    cmp.candidate = identity;
    const VersionedBuffer *a = spec.payload();
    const VersionedBuffer *b = candidate.payload();
    if (!a || !b)
        return cmp;
    const VersionedBuffer::DiffReport d = VersionedBuffer::diffReport(*a, *b);
    if (d.comparable) {
        cmp.firstDiffBlock = d.firstDiffBlock;
        cmp.bytesCompared = d.bytesCompared;
    }
    return cmp;
}

} // namespace

double
runSpan(const IStateModel &model, State &state, std::size_t from,
        std::size_t to, util::Rng &rng, double *outs, trace::TaskKind kind,
        trace::OpCounter *ops)
{
    const std::uint64_t copied_before = ops ? stateCopiedBytes(state) : 0;
    ExecContext ctx(rng, ops, kind);
    for (std::size_t i = from; i < to; ++i) {
        const double out = model.update(state, i, ctx);
        if (outs)
            outs[i - from] = out;
    }
    rng = ctx.rng();
    if (ops) {
        const std::uint64_t copied = stateCopiedBytes(state) - copied_before;
        if (copied > 0)
            ops->tick(trace::TaskKind::StateCopy, copied / 8);
    }
    return ctx.localWork();
}

obs::AbortReport
attributeAbort(const State &spec, const State &committed,
               const std::vector<StateHandle> &replicas,
               const obs::Span &validation,
               const std::vector<obs::Span> &replica_spans,
               const obs::Span &alt, std::initializer_list<obs::Span> bodies)
{
    obs::AbortReport report;
    for (const obs::Span &body : bodies)
        report.wastedBodySeconds += spanSeconds(body);
    report.wastedAltSeconds = spanSeconds(alt);
    obs::Span fanOut; // Wall interval of the enclosed replica fan-out.
    fanOut.startNs = validation.endNs;
    for (const obs::Span &rs : replica_spans) {
        report.wastedReplicaSeconds += spanSeconds(rs);
        if (rs.parent != validation.id)
            continue; // Eager: ran before the validation.
        fanOut.startNs = std::min(fanOut.startNs, rs.startNs);
        fanOut.endNs = std::max(fanOut.endNs, rs.endNs);
    }
    report.validateSeconds =
        std::max(0.0, spanSeconds(validation) - spanSeconds(fanOut));

    report.comparisons.push_back(compareCandidate(spec, committed, -1));
    for (std::size_t rep = 0; rep < replicas.size(); ++rep)
        report.comparisons.push_back(
            compareCandidate(spec, *replicas[rep], static_cast<int>(rep)));
    std::uint64_t best = 0;
    for (const obs::AbortComparison &cmp : report.comparisons) {
        report.bytesCompared += cmp.bytesCompared;
        if (cmp.candidate < 0 || cmp.bytesCompared >= best) {
            best = cmp.bytesCompared;
            report.mismatchCandidate = cmp.candidate;
            report.firstDiffBlock = cmp.firstDiffBlock;
        }
    }
    return report;
}

void
fileAbort(obs::AbortReport report, const obs::Span &abort)
{
    if (abort.id == 0)
        return;
    report.session = abort.session;
    report.chunk = abort.chunk;
    report.firstInput = abort.firstInput;
    report.inputCount = abort.inputCount;
    report.spanId = abort.id;
    obs::AbortLog::global().record(std::move(report));
}

} // namespace repro::core
