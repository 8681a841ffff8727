/**
 * @file
 * perfbench_probe: how fast the host runs a fixed piece of work now.
 *
 * The work is a three-level set-associative LRU cache model (about
 * 7 MiB of tag and age state) driven by a fixed pseudo-random address
 * stream of sequential, small-footprint and large-footprint accesses:
 * the same kind of work as the simulator's, but code of its own, so a
 * change to the simulator never changes it. run.py runs it around the
 * iterations of a run and scales the run's host times by its fastest
 * repetition (see host_speed there).
 *
 *   perfbench_probe [REPS]   -> {"probe_s": [s, ...]}
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace
{

class Cache
{
  public:
    Cache(unsigned sets, unsigned ways)
        : _sets(sets), _ways(ways), _tag(sets * ways, ~0ull),
          _age(sets * ways, 0)
    {
    }

    bool
    access(std::uint64_t line)
    {
        const unsigned set = (line ^ (line >> 13)) & (_sets - 1);
        std::uint64_t *tag = &_tag[set * _ways];
        std::uint32_t *age = &_age[set * _ways];
        ++_clock;
        unsigned victim = 0;
        for (unsigned w = 0; w < _ways; ++w) {
            if (tag[w] == line) {
                age[w] = _clock;
                return true;
            }
            if (age[w] < age[victim])
                victim = w;
        }
        tag[victim] = line;
        age[victim] = _clock;
        return false;
    }

  private:
    unsigned _sets, _ways;
    std::vector<std::uint64_t> _tag;
    std::vector<std::uint32_t> _age;
    std::uint32_t _clock = 0;
};

/** One repetition: 2M accesses through @p l1, @p l2 and @p l3 (kept
 *  across repetitions, so only the first touches fresh pages); returns
 *  a checksum of the hit levels. */
std::uint64_t
work(Cache &l1, Cache &l2, Cache &l3)
{
    std::uint64_t x = 88172645463325252ull, stream = 0, sum = 0;
    for (long i = 0; i < 2000000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint64_t line;
        switch (x & 3) {
          case 0:
            line = stream++ & 0xfffff;
            break;
          case 1:
            line = (x >> 8) & 0x3fff;
            break;
          default:
            line = (x >> 20) & 0x3ffff;
        }
        sum += l1.access(line)   ? 1
               : l2.access(line) ? 2
               : l3.access(line) ? 3
                                 : 4;
    }
    return sum;
}

} // namespace

int
main(int argc, char **argv)
{
    const int reps = argc > 1 ? std::atoi(argv[1]) : 3;
    if (reps < 1) {
        std::fprintf(stderr, "usage: perfbench_probe [REPS >= 1]\n");
        return 2;
    }
    Cache l1(64, 8), l2(4096, 16), l3(32768, 16);
    std::uint64_t check = 0;
    std::printf("{\"probe_s\": [");
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        check += work(l1, l2, l3);
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        std::printf("%s%.9g", r ? ", " : "", dt.count());
    }
    std::printf("], \"checksum\": %llu}\n",
                static_cast<unsigned long long>(check));
    return 0;
}
