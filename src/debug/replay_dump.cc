#include "replay_dump.hh"

#include <sstream>

namespace ztx::debug {

namespace {

void
dumpOp(std::ostringstream &os, std::size_t pos,
       const inject::LinOp &op)
{
    os << "  #" << pos << " cpu" << op.cpu << '.' << op.seq << ' '
       << inject::linOpCodeName(op.code) << '(' << op.arg << ")->";
    if (op.pending)
        os << '?';
    else
        os << op.result;
    os << "  [" << op.invoke << ',';
    if (op.pending)
        os << "pending";
    else
        os << op.response;
    os << "]  ";
    for (const auto &a : op.accesses) {
        os << (a.write() ? " W" : " R") << "0x" << std::hex
           << a.objid() << std::dec << '@' << a.version;
    }
    os << '\n';
}

} // namespace

std::string
replayScheduleDump(const std::vector<inject::LinOp> &history,
                   const inject::OrderInferReport &report,
                   std::size_t tail)
{
    std::ostringstream os;
    if (report.order.empty()) {
        os << "replay dump: no inferred schedule ("
           << (report.fallbackReason.empty()
                   ? "order inference did not run"
                   : report.fallbackReason)
           << ")\n";
        return os.str();
    }

    // End the excerpt at the failing operation when the verdict
    // names one (window[0]), else at the end of the schedule.
    std::size_t end = report.order.size();
    if (!report.verdict.window.empty()) {
        const auto &fail = report.verdict.window.front();
        for (std::size_t i = 0; i < report.order.size(); ++i) {
            const auto &op = history[report.order[i]];
            if (op.cpu == fail.cpu && op.seq == fail.seq) {
                end = i + 1;
                break;
            }
        }
    }
    const std::size_t begin = end > tail ? end - tail : 0;

    os << "replay dump: inferred serial schedule, operations "
       << begin << ".." << end - 1 << " of " << report.order.size()
       << " (versions as R/W objid@version)\n";
    for (std::size_t i = begin; i < end; ++i)
        dumpOp(os, i, history[report.order[i]]);
    if (!report.verdict.reason.empty())
        os << "  => " << report.verdict.reason << '\n';
    return os.str();
}

} // namespace ztx::debug
