/**
 * @file
 * Sequential specifications of the checked data types, shared by the
 * two history oracles: the Wing–Gong DFS (lincheck.cc) explores
 * linearization prefixes against them, and the order-inference
 * oracle (order_infer.cc) replays its single inferred serial
 * schedule against them. Each spec is a value type: `apply` mutates
 * the state and validates the operation's observed result against
 * it (false = impossible here), `applyPending` takes the state
 * effect of a maybe-completed operation with unconstrained result,
 * and `encode` appends a canonical state fingerprint (DFS memo key).
 */

#ifndef ZTX_INJECT_ADT_SPEC_HH
#define ZTX_INJECT_ADT_SPEC_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "inject/lincheck.hh"

namespace ztx::inject::spec {

inline constexpr Cycles infCycle = ~Cycles(0);

/** Effective response time: pending operations never precede. */
inline Cycles
respOf(const LinOp &op)
{
    return op.pending ? infCycle : op.response;
}

inline void
appendU64(std::string &out, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        out.push_back(char(v >> (i * 8)));
}

inline std::string
describeOp(const LinOp &op)
{
    std::ostringstream os;
    os << "cpu" << op.cpu << '#' << op.seq << ' '
       << linOpCodeName(op.code) << '(' << op.arg << ")->";
    if (op.pending)
        os << '?';
    else
        os << op.result;
    os << " [" << op.invoke << ',';
    if (op.pending)
        os << "pending";
    else
        os << op.response;
    os << ']';
    return os.str();
}

/**
 * Reject histories the ring buffer cannot vouch for: an operation
 * responding before it is invoked, per-CPU operations overlapping
 * each other, or a pending operation followed by more operations on
 * the same CPU (a lost response). On false, @p why names the first
 * offending operation and contains "malformed".
 */
inline bool
validateHistory(const std::vector<LinOp> &ops, std::string &why)
{
    std::map<CpuId, std::vector<const LinOp *>> per_cpu;
    for (const LinOp &op : ops) {
        if (!op.pending && op.response < op.invoke) {
            why = "malformed history: " + describeOp(op) +
                  " responds before it is invoked";
            return false;
        }
        per_cpu[op.cpu].push_back(&op);
    }
    for (auto &[cpu, list] : per_cpu) {
        std::stable_sort(list.begin(), list.end(),
                         [](const LinOp *a, const LinOp *b) {
                             return a->invoke < b->invoke;
                         });
        for (std::size_t i = 0; i + 1 < list.size(); ++i) {
            if (list[i]->pending) {
                why = "malformed history: pending " +
                      describeOp(*list[i]) + " is not cpu" +
                      std::to_string(cpu) + "'s last operation";
                return false;
            }
            if (list[i]->response > list[i + 1]->invoke) {
                why = "malformed history: " + describeOp(*list[i]) +
                      " overlaps " + describeOp(*list[i + 1]) +
                      " on the same CPU";
                return false;
            }
        }
    }
    return true;
}

/** Sorted-set specification (list_set workload). */
struct SetState
{
    std::set<std::uint64_t> keys;

    bool
    apply(const LinOp &op)
    {
        const bool present = keys.count(op.arg) != 0;
        switch (op.code) {
          case LinOpCode::SetLookup:
            return (op.result != 0) == present;
          case LinOpCode::SetInsert:
            if ((op.result != 0) == present)
                return false; // applied iff absent
            keys.insert(op.arg);
            return true;
          case LinOpCode::SetDelete:
            if ((op.result != 0) != present)
                return false; // applied iff present
            keys.erase(op.arg);
            return true;
          default:
            return false; // foreign opcode in a set history
        }
    }

    void
    applyPending(const LinOp &op)
    {
        if (op.code == LinOpCode::SetInsert)
            keys.insert(op.arg);
        else if (op.code == LinOpCode::SetDelete)
            keys.erase(op.arg);
    }

    void
    encode(std::string &out) const
    {
        for (const std::uint64_t k : keys)
            appendU64(out, k);
    }
};

/** FIFO queue specification (queue workload). */
struct QueueState
{
    std::deque<std::uint64_t> q;

    bool
    apply(const LinOp &op)
    {
        switch (op.code) {
          case LinOpCode::QueueEnqueue:
            q.push_back(op.arg);
            return true;
          case LinOpCode::QueueDequeue:
            if (op.result == 0)
                return q.empty(); // observed empty
            if (q.empty() || q.front() != op.result)
                return false;
            q.pop_front();
            return true;
          default:
            return false;
        }
    }

    void
    applyPending(const LinOp &op)
    {
        if (op.code == LinOpCode::QueueEnqueue) {
            q.push_back(op.arg);
        } else if (op.code == LinOpCode::QueueDequeue) {
            if (!q.empty())
                q.pop_front();
        }
    }

    void
    encode(std::string &out) const
    {
        for (const std::uint64_t v : q)
            appendU64(out, v);
    }
};

/** Bounded-linear-probing map specification (hashtable workload). */
struct MapState
{
    std::vector<std::uint64_t> slots; ///< index -> key, 0 empty
    unsigned maxProbes = 0;
    /** Engine-owned; outlives every state copy. */
    const std::function<std::uint64_t(std::uint64_t)> *bucketOf =
        nullptr;

    enum class Probe
    {
        Empty,
        Found,
        Bound
    };

    Probe
    probe(std::uint64_t key, std::size_t &slot) const
    {
        const std::uint64_t home = (*bucketOf)(key);
        for (unsigned p = 0; p < maxProbes; ++p) {
            const std::size_t s = std::size_t(home) + p;
            if (s >= slots.size())
                break;
            if (slots[s] == 0) {
                slot = s;
                return Probe::Empty;
            }
            if (slots[s] == key) {
                slot = s;
                return Probe::Found;
            }
        }
        return Probe::Bound;
    }

    bool
    apply(const LinOp &op)
    {
        std::size_t s = 0;
        const Probe pr = probe(op.arg, s);
        switch (op.code) {
          case LinOpCode::MapGet:
            // The workload stores value == key; a found get must
            // observe exactly that, a miss observes 0.
            if (pr == Probe::Found)
                return op.result == op.arg;
            return op.result == 0;
          case LinOpCode::MapPut:
            if (pr == Probe::Bound)
                return op.result == 0; // probe window full: dropped
            slots[s] = op.arg;
            return op.result == 1;
          default:
            return false;
        }
    }

    void
    applyPending(const LinOp &op)
    {
        if (op.code != LinOpCode::MapPut)
            return;
        std::size_t s = 0;
        if (probe(op.arg, s) != Probe::Bound)
            slots[s] = op.arg;
    }

    void
    encode(std::string &out) const
    {
        for (std::size_t i = 0; i < slots.size(); ++i) {
            if (slots[i] == 0)
                continue;
            appendU64(out, i);
            appendU64(out, slots[i]);
        }
    }
};

} // namespace ztx::inject::spec

#endif // ZTX_INJECT_ADT_SPEC_HH
