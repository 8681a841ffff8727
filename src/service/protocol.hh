/**
 * @file
 * The microlib_sweepd wire protocol: newline-delimited JSON objects.
 *
 * Every message on a service connection is one complete JSON object
 * on one line, distinguished by its first key:
 *
 *   {"cmd":...}    a request (client or worker -> daemon)
 *   {"reply":...}  the daemon's response to the previous request
 *   {"event":...}  a progress line (core/progress.hh) a worker
 *                  relays verbatim while executing a lease
 *
 * The full grammar lives in docs/SWEEP_SERVICE.md. Protocol lines
 * are built, read and written by the one JSONL layer of
 * core/progress.hh — ProtocolMsg is its JsonLine builder under the
 * name protocol code uses — so a relayed progress line and a
 * protocol line never disagree about what a byte means. Messages are
 * extracted by key, not position: readers ignore keys they do not
 * know, so the protocol is forward-extensible without a version
 * dance (the schema tuple in the worker hello covers the parts that
 * must match exactly).
 */

#ifndef MICROLIB_SERVICE_PROTOCOL_HH
#define MICROLIB_SERVICE_PROTOCOL_HH

#include "core/progress.hh"

namespace microlib
{

/** One protocol line: {"<kind>":"<name>", fields...} with kind
 *  "cmd" for requests and "reply" for responses. */
using ProtocolMsg = JsonLine;

} // namespace microlib

#endif // MICROLIB_SERVICE_PROTOCOL_HH
