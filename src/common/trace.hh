/**
 * @file
 * gem5-style categorized tracing.
 *
 * Components emit one-line events through ztx_trace(category, ...);
 * nothing is formatted unless the category is enabled, so tracing is
 * free in benchmark runs. The sink defaults to stderr and can be
 * redirected (tests capture into a stringstream). Categories can
 * also be enabled from the ZTX_TRACE environment variable as a
 * comma-separated list (e.g. ZTX_TRACE=tx,xi).
 */

#ifndef ZTX_COMMON_TRACE_HH
#define ZTX_COMMON_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>

#include "common/log.hh"

namespace ztx::trace {

/** Trace categories (bit flags). */
enum class Category : std::uint32_t
{
    Tx = 1u << 0,        ///< TBEGIN/TEND/abort events
    Xi = 1u << 1,        ///< cross interrogates and rejections
    Cache = 1u << 2,     ///< fills, evictions, LRU extension
    Millicode = 1u << 3, ///< abort subroutine, PPA, escalation
    Io = 1u << 4,        ///< channel subsystem
    Exec = 1u << 5,      ///< per-instruction execution
};

/** Enable @p category. */
void enable(Category category);

/** Disable @p category. */
void disable(Category category);

/** Disable everything (test isolation). */
void disableAll();

/** True if @p category is enabled. */
bool enabled(Category category);

/** True if any category is enabled. */
bool anyEnabled();

/** Parse "tx,xi,cache,millicode,io,exec" and enable those. */
void enableFromString(const std::string &spec);

/** Redirect output (nullptr restores stderr). */
void setSink(std::ostream *sink);

/** Short name of @p category. */
const char *categoryName(Category category);

/** Implementation detail of ztx_trace. */
void emit(Category category, const std::string &message);

} // namespace ztx::trace

/**
 * Emit a trace line in @p cat; arguments are streamed only when the
 * category is enabled.
 */
#define ztx_trace(cat, ...) \
    do { \
        if (::ztx::trace::enabled(cat)) { \
            ::ztx::trace::emit( \
                cat, ::ztx::log_detail::concat(__VA_ARGS__)); \
        } \
    } while (0)

#endif // ZTX_COMMON_TRACE_HH
