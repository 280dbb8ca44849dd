/**
 * @file
 * Per-layer invariant audits: the concrete checks components register
 * with an InvariantRegistry (see invariant_registry.h for the
 * machinery and DESIGN.md §6 for the catalogue).
 *
 * Layer coverage:
 *  - DecoupledSet: segment accounting vs. budget, valid-prefix LRU
 *    stack order, no duplicate valid line addresses, full 8-segment
 *    charge for uncompressed caches, clean victim-tag state;
 *  - EventQueue: monotonic now(), no event pending in the past,
 *    timing-wheel structure (EventQueue::auditWheel);
 *  - PriorityLink: byte conservation (requested = delivered +
 *    in-flight + queued);
 *  - BandwidthResource: busy-time/byte-count consistency;
 *  - Compressor: lossless compress -> decompress round-trip (run on
 *    every L2 fill when L2Params::verify_fill_roundtrip is set).
 *
 * Cache-internal audits (MSHR accounting, stat conservation) need
 * private state and live on L1Cache/L2Cache as registerAudits()
 * members; CmpSystem adds the cross-component stat checks.
 */

#ifndef CMPSIM_AUDIT_AUDITS_H
#define CMPSIM_AUDIT_AUDITS_H

#include <string>

#include "src/audit/invariant_registry.h"
#include "src/cache/decoupled_set.h"
#include "src/common/line_data.h"
#include "src/compression/compressor.h"
#include "src/mem/priority_link.h"
#include "src/sim/bandwidth_resource.h"
#include "src/sim/event_queue.h"

namespace cmpsim {

/** printf-style helper for audit failure details. */
std::string auditFormat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * One-shot structural check of @p set (see DecoupledSet's class
 * comment for the audited invariants).
 *
 * @param require_full_charge every valid line must be charged exactly
 *        kSegmentsPerLine segments (uncompressed caches: L1s and the
 *        uncompressed L2 configuration)
 * @param why receives the offending entry/counter state on failure
 * @return true when every invariant holds
 */
bool auditDecoupledSet(const DecoupledSet &set, bool require_full_charge,
                       std::string &why);

/**
 * Lossless round-trip check: compress @p line with @p c, decompress,
 * and compare byte-for-byte; also validates the reported segment
 * count. Used on every L2 fill in audit builds and by the audit tests.
 */
bool auditCompressorRoundTrip(const Compressor &c, const LineData &line,
                              std::string &why);

/** Register @p eq's audits (monotonic now, no past events, wheel
 *  structure) as "<name>.monotonic_now", "<name>.no_past_events" and
 *  "<name>.wheel". */
void registerEventQueueAudits(InvariantRegistry &reg,
                              const EventQueue &eq,
                              const std::string &name);

/** Register @p link's byte-conservation audit as
 *  "<name>.byte_conservation". */
void registerPriorityLinkAudits(InvariantRegistry &reg,
                                const PriorityLink &link,
                                const std::string &name);

/** Register @p bw's busy-time/byte consistency audit as
 *  "<name>.busy_bytes". */
void registerBandwidthResourceAudits(InvariantRegistry &reg,
                                     const BandwidthResource &bw,
                                     const std::string &name);

} // namespace cmpsim

#endif // CMPSIM_AUDIT_AUDITS_H
