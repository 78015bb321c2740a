#include "order_infer.hh"

#include <algorithm>
#include <map>
#include <queue>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "inject/adt_spec.hh"

namespace ztx::inject {

namespace {

using spec::describeOp;
using spec::respOf;

/** Version chains of one object: (version, op index) per access. */
struct ObjectChain
{
    std::vector<std::pair<std::uint64_t, std::uint32_t>> writes;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> reads;
};

/**
 * The shared inference pass: everything up to (and including) the
 * emission of the serial order, independent of the checked ADT.
 * Returns true when an order was inferred; false leaves `why` with
 * the fallback reason.
 */
class Inference
{
  public:
    explicit Inference(const std::vector<LinOp> &history)
        : ops_(history)
    {
    }

    bool
    run(OrderInferReport &report, std::string &why)
    {
        const std::size_t n = ops_.size();
        for (const LinOp &op : ops_) {
            report.versionRecords += op.accesses.size();
            if (op.pending) {
                why = "history has pending operation(s): the "
                      "region may or may not have committed";
                return false;
            }
        }
        if (!spec::validateHistory(ops_, why))
            return false;
        for (std::size_t i = 0; i < n; ++i) {
            if (ops_[i].accesses.empty()) {
                why = "completed " + describeOp(ops_[i]) +
                      " carries no version records";
                return false;
            }
        }
        if (!buildChains(why) || !buildEdges(report, why))
            return false;
        return emitOrder(report, why);
    }

  private:
    bool
    buildChains(std::string &why)
    {
        for (std::uint32_t i = 0; i < ops_.size(); ++i) {
            for (const VersionAccess &a : ops_[i].accesses) {
                ObjectChain &c = chains_[a.objid];
                (a.write ? c.writes : c.reads)
                    .push_back({a.version, i});
            }
        }
        for (auto &[objid, c] : chains_) {
            std::sort(c.writes.begin(), c.writes.end());
            // Writers must install exactly versions 1..W: the
            // history is complete (no truncation at this point), so
            // any duplicate or gap means the log is inconsistent.
            for (std::size_t v = 0; v < c.writes.size(); ++v) {
                if (c.writes[v].first != v + 1) {
                    why = "version " +
                          std::to_string(c.writes[v].first) +
                          " of object 0x" + hex(objid) +
                          (v > 0 && c.writes[v].first ==
                                        c.writes[v - 1].first
                               ? " installed twice"
                               : " breaks the 1..W write chain");
                    return false;
                }
            }
            const std::uint64_t top = c.writes.size();
            for (const auto &[ver, op] : c.reads) {
                if (ver > top) {
                    why = "read of uninstalled version " +
                          std::to_string(ver) + " of object 0x" +
                          hex(objid);
                    return false;
                }
            }
        }
        return true;
    }

    bool
    addEdge(std::uint32_t from, std::uint32_t to, std::string &why)
    {
        if (from == to) {
            why = "self-referential version edge at " +
                  describeOp(ops_[from]);
            return false;
        }
        edges_.push_back({from, to});
        return true;
    }

    bool
    buildEdges(OrderInferReport &report, std::string &why)
    {
        // Program order: each CPU's ops by per-CPU sequence number.
        std::map<CpuId, std::vector<std::uint32_t>> per_cpu;
        for (std::uint32_t i = 0; i < ops_.size(); ++i)
            per_cpu[ops_[i].cpu].push_back(i);
        for (auto &[cpu, list] : per_cpu) {
            std::sort(list.begin(), list.end(),
                      [&](std::uint32_t a, std::uint32_t b) {
                          return ops_[a].seq < ops_[b].seq;
                      });
            for (std::size_t i = 0; i + 1 < list.size(); ++i) {
                if (!addEdge(list[i], list[i + 1], why))
                    return false;
                ++report.programEdges;
            }
        }

        // Version order: W(v) -> W(v+1), W(v) -> R(v), R(v) ->
        // W(v+1); readers of the initial version precede the first
        // writer.
        for (auto &[objid, c] : chains_) {
            const std::size_t w = c.writes.size();
            for (std::size_t v = 0; v + 1 < w; ++v) {
                if (!addEdge(c.writes[v].second,
                             c.writes[v + 1].second, why))
                    return false;
                ++report.versionEdges;
            }
            for (const auto &[ver, op] : c.reads) {
                if (ver >= 1) {
                    if (!addEdge(c.writes[ver - 1].second, op, why))
                        return false;
                    ++report.versionEdges;
                }
                if (ver < w) {
                    if (!addEdge(op, c.writes[ver].second, why))
                        return false;
                    ++report.versionEdges;
                }
            }
        }
        return true;
    }

    /**
     * Kahn's algorithm with a min-heap keyed (invoke, cpu, seq):
     * deterministic, and picking the earliest-invoked ready op lets
     * the incremental real-time check below certify the order. If
     * any operation that must precede `u` in real time (responded
     * before `u` was invoked) is still unemitted when `u` is
     * emitted, the version log contradicts the recorded windows.
     */
    bool
    emitOrder(OrderInferReport &report, std::string &why)
    {
        const std::uint32_t n = std::uint32_t(ops_.size());

        // CSR adjacency.
        std::vector<std::uint32_t> indeg(n, 0), head(n + 1, 0);
        for (const auto &[from, to] : edges_) {
            ++head[from + 1];
            ++indeg[to];
        }
        for (std::uint32_t i = 0; i < n; ++i)
            head[i + 1] += head[i];
        std::vector<std::uint32_t> adj(edges_.size());
        {
            std::vector<std::uint32_t> fill = head;
            for (const auto &[from, to] : edges_)
                adj[fill[from]++] = to;
        }

        using Key = std::tuple<Cycles, CpuId, std::uint32_t,
                               std::uint32_t>;
        std::priority_queue<Key, std::vector<Key>,
                            std::greater<Key>>
            ready;
        for (std::uint32_t i = 0; i < n; ++i) {
            if (indeg[i] == 0) {
                ready.push({ops_[i].invoke, ops_[i].cpu,
                            ops_[i].seq, i});
            }
        }

        using RtKey = std::pair<Cycles, std::uint32_t>;
        std::priority_queue<RtKey, std::vector<RtKey>,
                            std::greater<RtKey>>
            unemitted;
        for (std::uint32_t i = 0; i < n; ++i)
            unemitted.push({respOf(ops_[i]), i});
        std::vector<char> emitted(n, 0);

        report.order.reserve(n);
        while (!ready.empty()) {
            const std::uint32_t u = std::get<3>(ready.top());
            ready.pop();
            while (!unemitted.empty() &&
                   emitted[unemitted.top().second])
                unemitted.pop();
            if (!unemitted.empty() &&
                unemitted.top().first < ops_[u].invoke) {
                why = "inferred order violates real-time "
                      "precedence: " +
                      describeOp(ops_[unemitted.top().second]) +
                      " responded before " + describeOp(ops_[u]) +
                      " was invoked but is ordered after it";
                return false;
            }
            emitted[u] = 1;
            report.order.push_back(u);
            for (std::uint32_t e = head[u]; e < head[u + 1]; ++e) {
                if (--indeg[adj[e]] == 0) {
                    const LinOp &next = ops_[adj[e]];
                    ready.push({next.invoke, next.cpu, next.seq,
                                adj[e]});
                }
            }
        }
        if (report.order.size() != n) {
            why = "cycle in the version-order graph (" +
                  std::to_string(n - report.order.size()) +
                  " operation(s) unordered)";
            report.order.clear();
            return false;
        }
        report.orderLength = n;
        return true;
    }

    static std::string
    hex(Addr a)
    {
        static const char digits[] = "0123456789abcdef";
        std::string s;
        do {
            s.insert(s.begin(), digits[a & 0xF]);
            a >>= 4;
        } while (a);
        return s;
    }

    const std::vector<LinOp> &ops_;
    std::unordered_map<Addr, ObjectChain> chains_;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges_;
};

/**
 * Infer the serial order and replay it against @p init. A history
 * the inference pass rejects — and a replay failure the DFS
 * refutes, which only a corrupted version log can produce — is
 * decided by @p fallback instead.
 */
template <typename State>
OrderInferReport
inferAndReplay(const std::vector<LinOp> &history, State init,
               const std::function<LinVerdict()> &fallback)
{
    OrderInferReport report;
    std::string why;
    Inference inference(history);
    if (!inference.run(report, why)) {
        report.fallbackReason = why;
        report.verdict = fallback();
        return report;
    }

    report.inferred = true;
    LinVerdict &v = report.verdict;
    v.numOps = history.size();

    State state = std::move(init);
    for (std::size_t pos = 0; pos < report.order.size(); ++pos) {
        const LinOp &op = history[report.order[pos]];
        ++v.statesExplored;
        if (state.apply(op))
            continue;
        v.checked = true;
        v.linearizable = false;
        v.reason = describeOp(op) +
                   " cannot be applied at position " +
                   std::to_string(pos) +
                   " of the inferred serial order";
        v.window = {op};
        // The inferred order is the real commit order whenever the
        // version log is faithful, so this is a genuine violation —
        // but give the DFS a bounded chance to refute it in case
        // the log itself is corrupt (a refutation means some other
        // linearization works).
        const LinVerdict dfs = fallback();
        if (dfs.checked && dfs.linearizable) {
            report.inferred = false;
            report.fallbackReason =
                "inferred order fails replay but the history "
                "linearizes: version log inconsistent with the "
                "recorded windows";
            report.verdict = dfs;
        }
        return report;
    }
    v.checked = true;
    v.linearizable = true;
    return report;
}

} // namespace

Json
orderInferJson(const OrderInferReport &r)
{
    Json d = Json::object();
    d["inferred"] = r.inferred;
    if (!r.fallbackReason.empty())
        d["fallback_reason"] = r.fallbackReason;
    d["version_records"] = r.versionRecords;
    d["version_edges"] = r.versionEdges;
    d["program_edges"] = r.programEdges;
    d["order_length"] = r.orderLength;
    d["verdict"] = linVerdictJson(r.verdict);
    return d;
}

OrderInferReport
inferSetLinearizable(const std::vector<LinOp> &history,
                     const std::vector<std::uint64_t> &initial_keys,
                     const LinCheckLimits &limits)
{
    spec::SetState init;
    init.keys.insert(initial_keys.begin(), initial_keys.end());
    return inferAndReplay(history, std::move(init), [&] {
        return checkSetLinearizable(history, initial_keys, limits);
    });
}

OrderInferReport
inferQueueLinearizable(
    const std::vector<LinOp> &history,
    const std::vector<std::uint64_t> &initial_values,
    const LinCheckLimits &limits)
{
    spec::QueueState init;
    init.q.assign(initial_values.begin(), initial_values.end());
    return inferAndReplay(history, std::move(init), [&] {
        return checkQueueLinearizable(history, initial_values,
                                      limits);
    });
}

OrderInferReport
inferMapLinearizable(
    const std::vector<LinOp> &history,
    const std::vector<std::uint64_t> &initial_slots,
    unsigned buckets, unsigned max_probes,
    const std::function<std::uint64_t(std::uint64_t)> &bucket_of,
    const LinCheckLimits &limits)
{
    spec::MapState init;
    init.slots = initial_slots;
    init.maxProbes = max_probes;
    init.bucketOf = &bucket_of;
    return inferAndReplay(history, std::move(init), [&] {
        return checkMapLinearizable(history, initial_slots, buckets,
                                    max_probes, bucket_of, limits);
    });
}

} // namespace ztx::inject
