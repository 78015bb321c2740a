/**
 * @file
 * Doubly-linked list insert/delete with constrained transactions —
 * the paper's motivating example for the constraint envelope
 * ("double-linked list-insert/delete operations can be performed").
 *
 * Four CPUs concurrently insert fresh nodes after the head sentinel
 * and delete the first node, each as a TBEGINC transaction with no
 * fallback path. The example verifies full structural integrity of
 * the circular list afterwards.
 */

#include <cstdio>

#include "isa/assembler.hh"
#include "sim/machine.hh"

namespace {

using namespace ztx;

// Node layout (one per 256-byte line): prev @0, next @8, value @16.
constexpr Addr headSentinel = 0x10'0000;
constexpr Addr arenaBase = 0x100'0000;
constexpr Addr arenaStride = 0x10'0000;
constexpr unsigned iterations = 300;

isa::Program
buildProgram()
{
    isa::Assembler as;
    as.la(9, 0, headSentinel); // R9 = &head
    as.lhi(8, iterations);
    as.lhi(14, 0); // successful deletes
    as.label("loop");

    // --- Prepare a fresh node outside the transaction.
    as.la(4, 15, 0);   // R4 = node
    as.stg(9, 4, 0);   //   node->prev = head
    as.lr(12, 8);
    as.stg(12, 4, 16); //   node->value = iteration
    as.la(15, 15, 256);

    // --- Insert after head (constrained).
    as.tbeginc(0x00);
    as.lgfo(3, 9, 8); //   R3 = head->next (store intent)
    as.stg(3, 4, 8);  //   node->next = old first
    as.stg(4, 9, 8);  //   head->next = node
    as.stg(4, 3, 0);  //   old first->prev = node
    as.tend();

    // --- Delete the first node (constrained; list may be empty).
    as.tbeginc(0x00);
    as.lgfo(3, 9, 8);       //   R3 = first
    as.cgr(3, 9);
    as.jz("empty");         //   circular: first == head -> empty
    as.lg(5, 3, 8);         //   R5 = second
    as.stg(5, 9, 8);        //   head->next = second
    as.stg(9, 5, 0);        //   second->prev = head
    as.lg(6, 3, 16);        //   harvest the value
    as.label("empty");
    as.tend();
    as.cgr(3, 9);
    as.jz("skip");
    as.ahi(14, 1);
    as.label("skip");

    as.brct(8, "loop");
    as.halt();
    return as.finish();
}

} // namespace

int
main()
{
    sim::MachineConfig config;
    config.activeCpus = 4;
    sim::Machine machine(config);

    // Empty circular list: head.prev = head.next = head.
    machine.memory().write(headSentinel + 0, headSentinel, 8);
    machine.memory().write(headSentinel + 8, headSentinel, 8);

    const isa::Program program = buildProgram();
    machine.setProgramAll(&program);
    for (unsigned i = 0; i < machine.numCpus(); ++i)
        machine.cpu(i).setGr(15, arenaBase + i * arenaStride);
    machine.run();
    machine.drainAllStores();

    unsigned long long inserts = 0, deletes = 0, aborts = 0;
    for (unsigned i = 0; i < machine.numCpus(); ++i) {
        inserts += iterations;
        deletes += machine.cpu(i).gr(14);
        aborts +=
            machine.cpu(i).stats().value("tx.aborts");
    }

    // Walk the list and verify prev/next integrity.
    unsigned length = 0;
    bool intact = true;
    Addr node = machine.memory().read(headSentinel + 8, 8);
    Addr prev = headSentinel;
    while (node != headSentinel && length <= inserts) {
        if (machine.memory().read(node + 0, 8) != prev)
            intact = false;
        prev = node;
        node = machine.memory().read(node + 8, 8);
        ++length;
    }
    if (machine.memory().read(headSentinel + 0, 8) != prev)
        intact = false;

    std::printf("inserts          : %llu\n", inserts);
    std::printf("deletes          : %llu\n", deletes);
    std::printf("final length     : %u (expected %llu)\n", length,
                inserts - deletes);
    std::printf("list integrity   : %s\n",
                intact ? "intact" : "BROKEN");
    std::printf("aborts (retried) : %llu\n", aborts);
    return (intact && length == inserts - deletes) ? 0 : 1;
}
