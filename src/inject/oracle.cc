#include "oracle.hh"

#include <set>
#include <sstream>

#include "mem/main_memory.hh"

namespace ztx::inject {

namespace {

/** Bound on any pointer walk: beyond this, assume a cycle. */
constexpr std::uint64_t walkBound = 1u << 20;

std::string
hex(Addr addr)
{
    std::ostringstream os;
    os << "0x" << std::hex << addr;
    return os.str();
}

/**
 * Refuse structural walks while CPUs still run: a mid-flight
 * transaction's buffered stores are invisible to the walk, so any
 * verdict would be meaningless.
 * @return True when the check must abort (violation recorded).
 */
bool
refuseLiveWalk(OracleReport &rep, bool all_cpus_halted)
{
    if (all_cpus_halted)
        return false;
    rep.fail("oracle invoked while CPUs are still running: "
             "structural walk would miss in-flight transactional "
             "state (halt all CPUs first)");
    return true;
}

} // namespace

std::string
OracleReport::summary() const
{
    if (ok)
        return "ok";
    std::string s;
    for (const auto &v : violations) {
        if (!s.empty())
            s += "; ";
        s += v;
    }
    return s;
}

ListSetReport
checkListSet(const mem::MainMemory &mem, bool all_cpus_halted,
             Addr head_sentinel, std::int64_t expected_length)
{
    ListSetReport rep;
    if (refuseLiveWalk(rep, all_cpus_halted))
        return rep;
    std::int64_t last_key = 0;
    rep.sorted = true;
    Addr node = mem.read(head_sentinel + 8, 8);
    while (node != 0) {
        if (rep.length >= walkBound) {
            rep.fail("list walk exceeded " +
                     std::to_string(walkBound) +
                     " nodes (cycle in next pointers?)");
            return rep;
        }
        const auto key = std::int64_t(mem.read(node + 0, 8));
        if (key <= last_key)
            rep.sorted = false;
        last_key = key;
        ++rep.length;
        node = mem.read(node + 8, 8);
    }
    if (!rep.sorted)
        rep.fail("list keys not strictly ascending");
    if (expected_length >= 0 &&
        rep.length != std::uint64_t(expected_length)) {
        rep.fail("list length " + std::to_string(rep.length) +
                 " != expected " + std::to_string(expected_length) +
                 " (lost or duplicated committed inserts/deletes)");
    }
    return rep;
}

QueueReport
checkQueue(const mem::MainMemory &mem, bool all_cpus_halted,
           Addr head_ptr_addr, Addr tail_ptr_addr,
           std::int64_t expected_length)
{
    QueueReport rep;
    if (refuseLiveWalk(rep, all_cpus_halted))
        return rep;
    const Addr head = mem.read(head_ptr_addr, 8);
    const Addr tail = mem.read(tail_ptr_addr, 8);
    if (head == 0 || tail == 0) {
        rep.fail("null queue anchor (head=" + hex(head) +
                 " tail=" + hex(tail) + ")");
        return rep;
    }
    Addr last = head;
    Addr node = mem.read(head + 8, 8);
    while (node != 0) {
        if (rep.length >= walkBound) {
            rep.fail("queue walk exceeded " +
                     std::to_string(walkBound) +
                     " nodes (cycle in next pointers?)");
            return rep;
        }
        last = node;
        ++rep.length;
        node = mem.read(node + 8, 8);
    }
    if (last != tail) {
        rep.fail("tail pointer " + hex(tail) +
                 " is not the last reachable node " + hex(last));
    }
    if (mem.read(tail + 8, 8) != 0)
        rep.fail("tail node's next pointer is not null");
    if (expected_length >= 0 &&
        rep.length != std::uint64_t(expected_length)) {
        rep.fail("queue length " + std::to_string(rep.length) +
                 " != expected " + std::to_string(expected_length) +
                 " (lost or duplicated enqueues/dequeues)");
    }
    return rep;
}

HashTableReport
checkHashTable(
    const mem::MainMemory &mem, bool all_cpus_halted,
    Addr table_base, unsigned buckets, unsigned max_probes,
    const std::function<std::uint64_t(std::uint64_t)> &bucket_of,
    std::int64_t min_occupied, std::int64_t max_occupied)
{
    HashTableReport rep;
    if (refuseLiveWalk(rep, all_cpus_halted))
        return rep;
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < buckets + max_probes; ++i) {
        const Addr slot = table_base + i * 256;
        const std::uint64_t key = mem.read(slot, 8);
        if (key == 0)
            continue;
        ++rep.occupied;
        const std::uint64_t value = mem.read(slot + 8, 8);
        if (value != key) {
            // The workload always stores value == key; anything else
            // is a torn or lost update.
            rep.fail("slot " + std::to_string(i) + ": value " +
                     std::to_string(value) + " != key " +
                     std::to_string(key));
        }
        const std::uint64_t home = bucket_of(key);
        if (i < home || i >= home + max_probes) {
            rep.fail("key " + std::to_string(key) + " in slot " +
                     std::to_string(i) +
                     " outside its probe window [" +
                     std::to_string(home) + ", " +
                     std::to_string(home + max_probes) + ")");
        }
        if (!seen.insert(key).second)
            rep.fail("key " + std::to_string(key) +
                     " present in more than one slot");
    }
    const auto occupied = std::int64_t(rep.occupied);
    if (occupied < min_occupied || occupied > max_occupied) {
        rep.fail("occupied slots " + std::to_string(occupied) +
                 " outside [" + std::to_string(min_occupied) + ", " +
                 std::to_string(max_occupied) +
                 "] (keys lost or invented)");
    }
    return rep;
}

} // namespace ztx::inject
