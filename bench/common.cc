#include "common.hh"

#include <cstdlib>
#include <iostream>

#include "sim/logging.hh"
#include "sim/options.hh"
#include "trace/spec_suite.hh"

namespace microlib::bench
{

std::vector<std::string>
benchmarkSet()
{
    if (envFlag("MICROLIB_QUICK")) {
        return {"ammp", "swim", "gzip", "mcf", "crafty", "lucas",
                "twolf", "gap"};
    }
    return specBenchmarkNames();
}

std::vector<std::string>
mechanismSet()
{
    return allMechanismNames();
}

ResultStore &
resultStore()
{
    static ResultStore the_store(cacheDir() + "/results.microlib");
    return the_store;
}

ExperimentEngine &
engine()
{
    static ExperimentEngine the_engine{[] {
        EngineOptions opts;
        opts.verbose = std::getenv("MICROLIB_VERBOSE") != nullptr;
        // Every finished run persists; re-running any harness over
        // overlapping (benchmark, mechanism, config) cells resumes.
        opts.store = &resultStore();
        return opts;
    }()};
    return the_engine;
}

std::string
cacheDir()
{
    if (const char *env = std::getenv("MICROLIB_CACHE_DIR"))
        return env;
    return "bench_cache";
}

MatrixResult
loadOrRun(ExperimentEngine &eng, const std::string &tag,
          const std::vector<std::string> &mechanisms,
          const std::vector<std::string> &benchmarks,
          const RunConfig &cfg)
{
    std::cout << "[run] sweeping matrix '" << tag << "' ("
              << mechanisms.size() << " mechanisms x "
              << benchmarks.size() << " benchmarks, "
              << eng.threads() << " workers)...\n";
    MatrixResult res = eng.run(mechanisms, benchmarks, cfg);
    const RunCounters counts = eng.lastRun();
    const ResultStore *store = eng.resultStore();
    std::cout << "[store] '" << tag << "': " << counts.resumed
              << " resumed, " << counts.executed << " executed";
    if (store && !store->path().empty())
        std::cout << " (" << store->path() << ")";
    std::cout << "\n";
    return res;
}

std::vector<std::size_t>
indicesOf(const MatrixResult &matrix,
          const std::vector<std::string> &names)
{
    std::vector<std::size_t> idx;
    for (const auto &n : names) {
        // Skip benchmarks absent from quick-mode subsets.
        for (std::size_t b = 0; b < matrix.benchmarks.size(); ++b)
            if (matrix.benchmarks[b] == n)
                idx.push_back(b);
    }
    return idx;
}

void
printRanking(const std::string &title, const MatrixResult &matrix,
             const std::vector<std::size_t> &subset)
{
    const auto ranking = rankMechanisms(matrix, subset);
    Table t(title);
    t.header({"rank", "mechanism", "avg speedup"});
    for (const auto &e : ranking)
        t.row({std::to_string(e.rank), e.mechanism,
               Table::num(e.avg_speedup, 4)});
    t.print(std::cout);
}

} // namespace microlib::bench
