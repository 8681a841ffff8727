/**
 * @file
 * Benchmark selections used by the paper's methodology studies.
 *
 * Table 4 lists which SPEC benchmarks each validated article used;
 * Table 7 re-ranks the mechanisms under the DBCP and GHB article
 * selections; Figure 7 contrasts the six most and six least
 * mechanism-sensitive benchmarks. The DBCP/GHB memberships are
 * reconstructed from the respective articles (the paper's own
 * Table 4 checkmarks); selections.cc gives the reasoning behind each
 * membership.
 */

#ifndef MICROLIB_CORE_SELECTIONS_HH
#define MICROLIB_CORE_SELECTIONS_HH

#include <string>
#include <vector>

namespace microlib
{

/** The 5-benchmark selection of the DBCP article (Table 4 row 1). */
const std::vector<std::string> &dbcpSelection();

/** The 12-benchmark selection of the GHB article (Table 4 row 3). */
const std::vector<std::string> &ghbSelection();

/** The paper's six high-sensitivity benchmarks (Figure 7). */
const std::vector<std::string> &highSensitivitySelection();

/** The paper's six low-sensitivity benchmarks (Figure 7). */
const std::vector<std::string> &lowSensitivitySelection();

} // namespace microlib

#endif // MICROLIB_CORE_SELECTIONS_HH
