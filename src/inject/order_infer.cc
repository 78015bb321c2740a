#include "order_infer.hh"

#include <algorithm>
#include <queue>
#include <tuple>
#include <utility>

#include "inject/adt_spec.hh"

namespace ztx::inject {

namespace {

using spec::describeOp;
using spec::respOf;

/** One write of an object's version chain. */
struct ChainWrite
{
    Addr objid = 0;
    std::uint64_t version = 0;
    std::uint32_t op = 0;
};

/** An object's writes: writes_[begin, end), by version. */
struct ObjectWrites
{
    Addr objid = 0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0; ///< 0: an empty slot of the chain table
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
        if (!buildWriteChains(why) || !checkReads(why) ||
            !buildGraph(report, why))
            return false;
        // Kahn's sweep needs only the graph.
        writes_ = {};
        chains_ = {};
        byCpu_ = {};
        return emitOrder(report, why);
    }

  private:
    /**
     * Collect every write, sorted by (object, version, op), and
     * check that each object's writers install exactly versions
     * 1..W. Only writes are kept: a read needs nothing but its
     * object's chain, found by objectOf() in an open-addressed
     * table of the chains.
     */
    bool
    buildWriteChains(std::string &why)
    {
        for (std::uint32_t i = 0; i < ops_.size(); ++i)
            for (const VersionAccess &a : ops_[i].accesses)
                if (a.write())
                    writes_.push_back({a.objid(), a.version, i});
        std::sort(writes_.begin(), writes_.end(),
                  [](const ChainWrite &a, const ChainWrite &b) {
                      return std::tie(a.objid, a.version, a.op) <
                             std::tie(b.objid, b.version, b.op);
                  });
        std::size_t objects = 0;
        for (std::size_t w = 0; w < writes_.size(); ++w)
            objects += w == 0 || writes_[w].objid != writes_[w - 1].objid;
        chainBits_ = 1;
        while ((std::size_t(1) << chainBits_) < 2 * objects)
            ++chainBits_;
        chains_.assign(std::size_t(1) << chainBits_, ObjectWrites{});
        for (std::uint32_t w = 0; w < writes_.size();) {
            ObjectWrites obj{writes_[w].objid, w, w};
            while (obj.end < writes_.size() &&
                   writes_[obj.end].objid == obj.objid)
                ++obj.end;
            // The history is complete (no truncation at this point),
            // so any duplicate or gap means the log is inconsistent.
            for (std::uint32_t v = 0; v < obj.end - obj.begin; ++v) {
                const std::uint64_t ver = writes_[obj.begin + v].version;
                if (ver != v + 1) {
                    why = "version " + std::to_string(ver) +
                          " of object 0x" + hex(obj.objid) +
                          (v > 0 && ver == writes_[obj.begin + v - 1]
                                               .version
                               ? " installed twice"
                               : " breaks the 1..W write chain");
                    return false;
                }
            }
            std::size_t s = chainSlot(obj.objid);
            while (chains_[s].end != 0)
                s = (s + 1) & (chains_.size() - 1);
            chains_[s] = obj;
            w = obj.end;
        }
        return true;
    }

    /** The home slot of @p objid in chains_ (Fibonacci hashing). */
    std::size_t
    chainSlot(Addr objid) const
    {
        return std::size_t(((objid >> lineSizeLog2) *
                            0x9E3779B97F4A7C15ULL) >>
                           (64 - chainBits_));
    }

    /** The write chain of @p objid (empty when never written). */
    ObjectWrites
    objectOf(Addr objid) const
    {
        for (std::size_t s = chainSlot(objid); chains_[s].end != 0;
             s = (s + 1) & (chains_.size() - 1)) {
            if (chains_[s].objid == objid)
                return chains_[s];
        }
        return {objid, 0, 0};
    }

    /** Every read must observe an installed version. */
    bool
    checkReads(std::string &why) const
    {
        for (const LinOp &op : ops_) {
            for (const VersionAccess &a : op.accesses) {
                if (a.write())
                    continue;
                const ObjectWrites obj = objectOf(a.objid());
                if (a.version > obj.end - obj.begin) {
                    why = "read of uninstalled version " +
                          std::to_string(a.version) + " of object 0x" +
                          hex(a.objid());
                    return false;
                }
            }
        }
        return true;
    }

    /**
     * Call @p edge(from, to, program) for every order edge: program
     * order (each CPU's ops by per-CPU sequence number), then version
     * order — W(v) -> W(v+1), W(v) -> R(v), R(v) -> W(v+1); readers
     * of the initial version precede the first writer. Stops at, and
     * returns false for, the first edge @p edge refuses.
     */
    template <typename Edge>
    bool
    forEachEdge(Edge &&edge) const
    {
        for (std::size_t i = 0; i + 1 < byCpu_.size(); ++i) {
            if (ops_[byCpu_[i]].cpu == ops_[byCpu_[i + 1]].cpu &&
                !edge(byCpu_[i], byCpu_[i + 1], true))
                return false;
        }
        for (std::size_t w = 0; w + 1 < writes_.size(); ++w) {
            if (writes_[w].objid == writes_[w + 1].objid &&
                !edge(writes_[w].op, writes_[w + 1].op, false))
                return false;
        }
        for (std::uint32_t i = 0; i < ops_.size(); ++i) {
            for (const VersionAccess &a : ops_[i].accesses) {
                if (a.write())
                    continue;
                const ObjectWrites obj = objectOf(a.objid());
                const std::uint64_t ver = a.version;
                if (ver >= 1 &&
                    !edge(writes_[obj.begin + ver - 1].op, i, false))
                    return false;
                if (ver < obj.end - obj.begin &&
                    !edge(i, writes_[obj.begin + ver].op, false))
                    return false;
            }
        }
        return true;
    }

    /**
     * The CSR (compressed sparse row) adjacency in two passes over
     * the edges: one counts each op's out- and in-degree, the other
     * fills the rows.
     */
    bool
    buildGraph(OrderInferReport &report, std::string &why)
    {
        const std::uint32_t n = std::uint32_t(ops_.size());
        byCpu_.resize(n);
        for (std::uint32_t i = 0; i < n; ++i)
            byCpu_[i] = i;
        std::sort(byCpu_.begin(), byCpu_.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      return std::tie(ops_[a].cpu, ops_[a].seq, a) <
                             std::tie(ops_[b].cpu, ops_[b].seq, b);
                  });

        head_.assign(n + 1, 0);
        indeg_.assign(n, 0);
        const bool no_self_edge = forEachEdge(
            [&](std::uint32_t from, std::uint32_t to, bool program) {
                if (from == to) {
                    why = "self-referential version edge at " +
                          describeOp(ops_[from]);
                    return false;
                }
                ++head_[from + 1];
                ++indeg_[to];
                ++(program ? report.programEdges
                           : report.versionEdges);
                return true;
            });
        if (!no_self_edge)
            return false;
        for (std::uint32_t i = 0; i < n; ++i)
            head_[i + 1] += head_[i];

        adj_.resize(head_[n]);
        std::vector<std::size_t> fill(head_.begin(), head_.end() - 1);
        forEachEdge([&](std::uint32_t from, std::uint32_t to, bool) {
            adj_[fill[from]++] = to;
            return true;
        });
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

        using Key = std::tuple<Cycles, CpuId, std::uint32_t,
                               std::uint32_t>;
        std::priority_queue<Key, std::vector<Key>,
                            std::greater<Key>>
            ready;
        for (std::uint32_t i = 0; i < n; ++i) {
            if (indeg_[i] == 0) {
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
            for (std::size_t e = head_[u]; e < head_[u + 1]; ++e) {
                if (--indeg_[adj_[e]] == 0) {
                    const LinOp &next = ops_[adj_[e]];
                    ready.push({next.invoke, next.cpu, next.seq,
                                adj_[e]});
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
    /** Every write of the history, by (object, version, op). */
    std::vector<ChainWrite> writes_;
    /** Each written object's chain, open-addressed by object id. */
    std::vector<ObjectWrites> chains_;
    unsigned chainBits_ = 0; ///< log2 of chains_.size()
    /** Op indices by (cpu, seq): program order. */
    std::vector<std::uint32_t> byCpu_;
    /** @name CSR graph: u's successors are adj_[head_[u], head_[u+1])
     * @{ */
    std::vector<std::size_t> head_;
    std::vector<std::uint32_t> adj_;
    std::vector<std::uint32_t> indeg_;
    /** @} */
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
