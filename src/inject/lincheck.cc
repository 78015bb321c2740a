#include "lincheck.hh"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "inject/adt_spec.hh"

namespace ztx::inject {

namespace {

using spec::appendU64;
using spec::describeOp;
using spec::infCycle;
using spec::MapState;
using spec::QueueState;
using spec::respOf;
using spec::SetState;

// ---------------------------------------------------------------
// The search engine: DFS over linearization prefixes.
// ---------------------------------------------------------------

template <typename State>
class Engine
{
  public:
    Engine(std::vector<LinOp> history, State initial,
           const LinCheckLimits &limits)
        : ops_(std::move(history)), init_(std::move(initial)),
          limits_(limits)
    {
    }

    LinVerdict
    run()
    {
        LinVerdict v;
        v.numOps = ops_.size();
        for (const auto &op : ops_)
            if (op.pending)
                ++v.numPending;

        if (!spec::validateHistory(ops_, v.reason))
            return v; // malformed: checked stays false

        // The simulator's global cycle order: sorting by invoke
        // makes "the next operation that could linearize" a window
        // scan from the first undecided index.
        std::stable_sort(ops_.begin(), ops_.end(),
                         [](const LinOp &a, const LinOp &b) {
                             if (a.invoke != b.invoke)
                                 return a.invoke < b.invoke;
                             if (respOf(a) != respOf(b))
                                 return respOf(a) < respOf(b);
                             return a.cpu < b.cpu;
                         });
        done_.assign(ops_.size(), 0);

        const bool ok = dfs(init_);
        v.statesExplored = explored_;
        if (limitHit_) {
            v.reason = "state limit (" +
                       std::to_string(limits_.maxStates) +
                       ") exceeded before a verdict";
            return v; // checked stays false
        }
        v.checked = true;
        v.linearizable = ok;
        if (!ok) {
            v.reason = stuckReason_.empty()
                           ? "no linearization of the history "
                             "replays against the specification"
                           : stuckReason_;
            v.window = stuckWindow_;
        }
        return v;
    }

  private:
    bool
    bumpExplored()
    {
        if (++explored_ > limits_.maxStates) {
            limitHit_ = true;
            return false;
        }
        return true;
    }

    void
    mark(std::size_t i)
    {
        done_[i] = 1;
        ++nDone_;
    }

    void
    unmark(std::size_t i)
    {
        done_[i] = 0;
        --nDone_;
        if (i < firstHint_)
            firstHint_ = i;
    }

    /**
     * Candidate window at the current configuration: `first` is the
     * lowest undecided index; `lim` the scan bound (first undecided
     * op invoked after every undecided response); `m` the minimum
     * undecided response. Candidates are the undecided ops invoked
     * no later than `m` — exactly the ops minimal in the real-time
     * precedence order, i.e. the legal next linearization choices.
     */
    struct Window
    {
        std::size_t first;
        std::size_t lim;
        Cycles minResp;
        std::vector<std::size_t> cand;
    };

    Window
    window()
    {
        Window w;
        std::size_t first = firstHint_;
        while (first < ops_.size() && done_[first])
            ++first;
        firstHint_ = first;
        w.first = first;
        w.lim = ops_.size();
        Cycles m = infCycle;
        for (std::size_t i = first; i < ops_.size(); ++i) {
            if (done_[i])
                continue;
            if (ops_[i].invoke > m) {
                w.lim = i;
                break;
            }
            if (respOf(ops_[i]) < m)
                m = respOf(ops_[i]);
        }
        w.minResp = m;
        for (std::size_t i = first; i < w.lim; ++i) {
            if (!done_[i] && ops_[i].invoke <= m)
                w.cand.push_back(i);
        }
        return w;
    }

    /** @return False when this configuration was already explored. */
    bool
    memoInsert(const Window &w, const State &state)
    {
        std::string key;
        key.reserve(64);
        appendU64(key, w.first);
        for (std::size_t i = w.first; i < w.lim; ++i)
            if (done_[i])
                appendU64(key, i);
        key.push_back('|');
        state.encode(key);
        return seen_.insert(std::move(key)).second;
    }

    void
    noteStuck(const Window &w, std::size_t failed)
    {
        if (nDone_ < bestDone_)
            return;
        bestDone_ = nDone_;
        stuckWindow_.clear();
        for (std::size_t i = w.first; i < w.lim; ++i)
            if (!done_[i])
                stuckWindow_.push_back(ops_[i]);
        stuckReason_ =
            describeOp(ops_[failed]) +
            " cannot be linearized against the specification "
            "after " +
            std::to_string(nDone_) + " of " +
            std::to_string(ops_.size()) + " operations";
    }

    /**
     * One suspended branch point of the search. Frames exist only
     * where the window holds several candidates (or a pending
     * operation): runs of forced linearizations are consumed inside
     * a single frame, so the stack depth is the number of *open
     * branch decisions*, not the history size — and it lives on the
     * heap, so even an all-pending history cannot overflow the host
     * stack (the old recursive engine had to refuse such histories
     * beyond a size cap).
     */
    struct Frame
    {
        /** Spec state at the branch point (after forced ops). */
        State state;
        /** Forced-fast-path marks, undone when the frame dies. */
        std::vector<std::size_t> forced{};
        Window w{};
        /** Cursor into w.cand: the candidate being explored. */
        std::size_t ci = 0;
        /** Pending candidates: 0 = took effect, 1 = never happened. */
        int stage = 0;
        /** Forced prefix consumed, window and memo established. */
        bool expanded = false;
    };

    bool
    dfs(State state)
    {
        std::vector<Frame> stack;
        stack.push_back(Frame{std::move(state)});
        // True when the top frame is being resumed after one of its
        // children exhausted its subtree without success.
        bool resuming = false;

        while (!stack.empty()) {
            Frame &f = stack.back();

            if (!f.expanded) {
                // Fast path: while exactly one minimal operation
                // exists and it completed, its linearization
                // position is forced — no branching, no memo
                // traffic, no new frame. The deterministic global
                // cycle order makes this the dominant case.
                bool fail = false;
                for (;;) {
                    Window w = window();
                    if (w.first == ops_.size())
                        return true; // every operation decided
                    if (w.cand.size() == 1 &&
                        !ops_[w.cand[0]].pending) {
                        if (!bumpExplored() ||
                            !f.state.apply(ops_[w.cand[0]])) {
                            if (!limitHit_)
                                noteStuck(w, w.cand[0]);
                            fail = true;
                            break;
                        }
                        mark(w.cand[0]);
                        f.forced.push_back(w.cand[0]);
                        continue;
                    }
                    // Branch point: prune configurations (done-set
                    // + spec state) seen before.
                    if (!memoInsert(w, f.state))
                        fail = true;
                    f.w = std::move(w);
                    break;
                }
                if (fail) {
                    for (auto it = f.forced.rbegin();
                         it != f.forced.rend(); ++it)
                        unmark(*it);
                    stack.pop_back();
                    resuming = true;
                    continue;
                }
                f.expanded = true;
            } else if (resuming) {
                // The child exploring candidate ci/stage failed:
                // undo its mark and advance to the next alternative
                // (a pending operation's "took effect" branch is
                // followed by its "never happened" branch).
                const std::size_t c = f.w.cand[f.ci];
                unmark(c);
                if (ops_[c].pending && f.stage == 0 && !limitHit_) {
                    f.stage = 1;
                } else {
                    f.stage = 0;
                    ++f.ci;
                }
                resuming = false;
            }

            // Dispatch the next candidate as a child frame.
            bool pushed = false;
            while (f.ci < f.w.cand.size() && !limitHit_) {
                const std::size_t c = f.w.cand[f.ci];
                const LinOp &op = ops_[c];
                if (f.stage == 0) {
                    // One exploration budget per candidate; the
                    // dropped branch of a pending op rides along.
                    if (!bumpExplored())
                        break;
                    State next = f.state;
                    if (!op.pending) {
                        if (!next.apply(op)) {
                            noteStuck(f.w, c);
                            ++f.ci;
                            continue;
                        }
                    } else {
                        // Maybe-completed: first assume it took
                        // effect (result unconstrained) ...
                        next.applyPending(op);
                    }
                    mark(c);
                    stack.push_back(Frame{std::move(next)});
                } else {
                    // ... then assume it never happened.
                    mark(c);
                    stack.push_back(Frame{f.state});
                }
                pushed = true;
                break;
            }
            if (!pushed) {
                // Candidates exhausted (or the limit tripped):
                // this subtree holds no linearization.
                Frame &g = stack.back();
                for (auto it = g.forced.rbegin();
                     it != g.forced.rend(); ++it)
                    unmark(*it);
                stack.pop_back();
                resuming = true;
            }
        }
        return false;
    }

    std::vector<LinOp> ops_;
    State init_;
    LinCheckLimits limits_;

    std::vector<char> done_;
    std::size_t nDone_ = 0;
    std::size_t firstHint_ = 0;
    std::unordered_set<std::string> seen_;
    std::uint64_t explored_ = 0;
    bool limitHit_ = false;

    std::size_t bestDone_ = 0;
    std::string stuckReason_;
    std::vector<LinOp> stuckWindow_;
};

} // namespace

const char *
linOpCodeName(LinOpCode code)
{
    switch (code) {
      case LinOpCode::SetLookup:
        return "lookup";
      case LinOpCode::SetInsert:
        return "insert";
      case LinOpCode::SetDelete:
        return "delete";
      case LinOpCode::QueueEnqueue:
        return "enqueue";
      case LinOpCode::QueueDequeue:
        return "dequeue";
      case LinOpCode::MapGet:
        return "get";
      case LinOpCode::MapPut:
        return "put";
    }
    return "?";
}

Json
linVerdictJson(const LinVerdict &v)
{
    Json d = Json::object();
    d["checked"] = v.checked;
    d["linearizable"] = v.checked ? Json(v.linearizable) : Json();
    d["truncated"] = v.truncated;
    d["ops"] = v.numOps;
    d["pending_ops"] = v.numPending;
    d["states_explored"] = v.statesExplored;
    if (!v.reason.empty())
        d["reason"] = v.reason;
    if (!v.window.empty()) {
        Json win = Json::array();
        for (const auto &op : v.window) {
            Json o = Json::object();
            o["cpu"] = op.cpu;
            o["seq"] = op.seq;
            o["op"] = linOpCodeName(op.code);
            o["arg"] = op.arg;
            o["result"] = op.pending ? Json() : Json(op.result);
            o["invoke"] = std::uint64_t(op.invoke);
            o["response"] = op.pending
                                ? Json()
                                : Json(std::uint64_t(op.response));
            o["pending"] = op.pending;
            win.push(std::move(o));
        }
        d["window"] = std::move(win);
    }
    return d;
}

LinVerdict
checkSetLinearizable(const std::vector<LinOp> &history,
                     const std::vector<std::uint64_t> &initial_keys,
                     const LinCheckLimits &limits)
{
    SetState init;
    init.keys.insert(initial_keys.begin(), initial_keys.end());
    return Engine<SetState>(history, std::move(init), limits).run();
}

LinVerdict
checkQueueLinearizable(
    const std::vector<LinOp> &history,
    const std::vector<std::uint64_t> &initial_values,
    const LinCheckLimits &limits)
{
    QueueState init;
    init.q.assign(initial_values.begin(), initial_values.end());
    return Engine<QueueState>(history, std::move(init), limits)
        .run();
}

LinVerdict
checkMapLinearizable(
    const std::vector<LinOp> &history,
    const std::vector<std::uint64_t> &initial_slots,
    unsigned buckets, unsigned max_probes,
    const std::function<std::uint64_t(std::uint64_t)> &bucket_of,
    const LinCheckLimits &limits)
{
    (void)buckets; // geometry implied by initial_slots.size()
    MapState init;
    init.slots = initial_slots;
    init.maxProbes = max_probes;
    init.bucketOf = &bucket_of;
    return Engine<MapState>(history, std::move(init), limits).run();
}

} // namespace ztx::inject
