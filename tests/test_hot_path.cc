/**
 * @file
 * Hot-path determinism tests.
 *
 * Golden digests pin every (program x mechanism) cell's CoreResult
 * and full stat snapshot, so any change to the simulated results —
 * in the core loop, a cache, a mechanism or the trace path, on every
 * execution path at once — fails with the differing cells named.
 * Every cell is also checked against the model's counter identities.
 * A second table pins three L2-size variants per program, each
 * (program, mechanism) cell a three-member lockstep group.
 * A second suite pins the full stat snapshot across MICROLIB_THREADS
 * 1/4/8 so the scheduler cannot leak ordering into the results.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.hh"
#include "core/scheduler.hh"
#include "core/sweep_spec.hh"
#include "core/task_plan.hh"
#include "sim/fingerprint.hh"
#include "trace/spec_suite.hh"

using namespace microlib;

namespace
{

const std::vector<std::string> kBenchmarks = {"swim", "mcf", "crafty"};
const std::vector<std::string> kMechanisms = {"Base", "VC", "GHB"};

/** An explicit arbitrary window: the same at every MICROLIB_QUICK
 *  setting. */
RunConfig
quickConfig()
{
    RunConfig cfg;
    cfg.selection = TraceSelection::Arbitrary;
    cfg.scale.arbitrary_skip = 25'000;
    cfg.scale.arbitrary_length = 80'000;
    return cfg;
}

} // namespace

TEST(HotPath, BitIdenticalAcrossWorkerCounts)
{
    const RunConfig cfg = quickConfig();
    std::vector<MatrixResult> results;
    for (const unsigned threads : {1u, 4u, 8u}) {
        setenv("MICROLIB_THREADS", std::to_string(threads).c_str(), 1);
        EngineOptions opts;
        opts.threads = threads;
        ExperimentEngine engine(opts);
        results.push_back(engine.run(kMechanisms, kBenchmarks, cfg));
    }
    unsetenv("MICROLIB_THREADS");

    const MatrixResult &base = results.front();
    for (std::size_t r = 1; r < results.size(); ++r) {
        const MatrixResult &other = results[r];
        ASSERT_EQ(base.mechanisms, other.mechanisms);
        ASSERT_EQ(base.benchmarks, other.benchmarks);
        for (std::size_t m = 0; m < base.mechanisms.size(); ++m) {
            for (std::size_t b = 0; b < base.benchmarks.size(); ++b) {
                const RunOutput &x = base.outputs[m][b];
                const RunOutput &y = other.outputs[m][b];
                const std::string label = base.mechanisms[m] + "/" +
                                          base.benchmarks[b];
                EXPECT_EQ(x.core.cycles, y.core.cycles) << label;
                EXPECT_EQ(x.core.ipc, y.core.ipc) << label;
                EXPECT_EQ(x.stats, y.stats) << label;
            }
        }
    }
}

namespace
{

/** Every suite program plus pchase, in catalog order. */
std::vector<std::string>
goldenBenchmarks()
{
    std::vector<std::string> names = specBenchmarkNames();
    for (const auto &extra : extraBenchmarkNames())
        names.push_back(extra);
    return names;
}

/** The golden matrix: goldenBenchmarks() x allMechanismNames() on
 *  quickConfig()'s explicit window, so neither the results nor the
 *  run time depend on MICROLIB_QUICK. Run once through the engine
 *  (the path reports print) and shared by the tests below. */
const MatrixResult &
goldenMatrix()
{
    static const MatrixResult matrix = [] {
        ExperimentEngine engine;
        return engine.run(allMechanismNames(), goldenBenchmarks(),
                          quickConfig());
    }();
    return matrix;
}

/** Digest of one cell: every CoreResult field, then every (name,
 *  value) pair of the stat snapshot, doubles by bit pattern. */
std::uint64_t
cellDigest(const RunOutput &out)
{
    Fingerprint fp;
    fp.mix(out.core.instructions);
    fp.mix(out.core.cycles);
    fp.mix(out.core.ipc);
    fp.mix(out.core.loads);
    fp.mix(out.core.stores);
    fp.mix(out.core.branches);
    fp.mix(out.core.mispredicts);
    fp.mix(static_cast<std::uint64_t>(out.stats.size()));
    for (const auto &[name, value] : out.stats) {
        fp.mix(name);
        fp.mix(value);
    }
    return fp.value();
}

constexpr std::size_t kGoldenMechanisms = 13;

using GoldenRow =
    std::pair<std::string, std::array<std::uint64_t, kGoldenMechanisms>>;

/** Row @p label of a golden table: the digest of column @p b of
 *  @p m, one per mechanism. */
GoldenRow
digestRow(const std::string &label, const MatrixResult &m, std::size_t b)
{
    GoldenRow row{label, {}};
    for (std::size_t i = 0; i < kGoldenMechanisms; ++i)
        row.second[i] = cellDigest(m.outputs[i][b]);
    return row;
}

/** Compare computed rows @p got against @p golden. A mismatch names
 *  every differing cell and prints the new table to paste, with a
 *  CHANGES.md note saying why the results moved. */
void
expectGolden(const std::vector<GoldenRow> &golden,
             const std::vector<GoldenRow> &got,
             const std::vector<std::string> &mechanisms)
{
    std::ostringstream table;
    std::ostringstream differing;
    for (std::size_t r = 0; r < got.size(); ++r) {
        const GoldenRow *want =
            r < golden.size() && golden[r].first == got[r].first
                ? &golden[r]
                : nullptr;
        table << "        {\"" << got[r].first << "\",\n         {";
        for (std::size_t i = 0; i < kGoldenMechanisms; ++i) {
            char hex[32];
            std::snprintf(hex, sizeof(hex), "0x%016llxull",
                          static_cast<unsigned long long>(
                              got[r].second[i]));
            if (i > 0)
                table << (i % 3 == 0 ? ",\n          " : ", ");
            table << hex;
            if (!want || want->second[i] != got[r].second[i])
                differing << "  " << got[r].first << "/"
                          << mechanisms[i] << "\n";
        }
        table << "}},\n";
    }
    EXPECT_EQ(golden.size(), got.size());
    EXPECT_TRUE(differing.str().empty())
        << "cells whose results changed:\n" << differing.str()
        << "new table:\n" << table.str();
}

} // namespace

TEST(HotPath, GoldenCellDigests)
{
    // One row per program in catalog order, one digest per mechanism
    // in allMechanismNames() order. A model change moves these; the
    // failure prints the new table to paste here, with a CHANGES.md
    // note saying why the results moved.
    const std::vector<GoldenRow> golden = {
        {"ammp",
         {0xe2017bbe74c4999eull, 0x24c866bce974afa6ull, 0xddb92d414cd82607ull,
          0x1cfebd6a26046848ull, 0x03bdc8a67a511e7eull, 0x68ac9a1627342500ull,
          0xd1ac4897e45cc207ull, 0x78a8af7c1106dfbbull, 0x98037a7bdaed9123ull,
          0x2f222331fc257a74ull, 0x02fa727345f6694eull, 0x10b8b010b031e492ull,
          0xd1c559685c7943fbull}},
        {"applu",
         {0x1abb7005110da20full, 0xea46f86c57072df4ull, 0x99a2f3c6814d3707ull,
          0x049b4b0740cf347bull, 0xb74e9199b7a6beebull, 0xeaaadcbe18d52d35ull,
          0xc2adb2cf9f3a9a1eull, 0xb53ecd9cadd7cb28ull, 0xf96174a27ea42f7cull,
          0x26f9ccd57c855b4full, 0x15fbde16f7badf4eull, 0x997a94e86490458aull,
          0x60f993484bca952bull}},
        {"apsi",
         {0x74afe5bf28f3838cull, 0xfd5cd7b147b41039ull, 0x0e538b037915fddeull,
          0x9f5977e9833aee83ull, 0xf0932ad04feb02a0ull, 0x7f16d7acec2594faull,
          0xac37acc178b2506full, 0x4ba19fc0cc31f9cdull, 0xb0a80833001dd61cull,
          0x96117a755e759516ull, 0xdde4da8a6b34dfe2ull, 0x5307f47339bad8cbull,
          0x25ebd971e54f2018ull}},
        {"art",
         {0x5511aaf2f967aaacull, 0x3895b667556297dbull, 0x3ec6214bfdcdb1c7ull,
          0x3b022afed7a7d99dull, 0x4799df2cbeea8343ull, 0x9480c4857d701120ull,
          0x62d7ecdc9b54acacull, 0xa189902c9427af32ull, 0xb0c09fd0d25db92dull,
          0xbce36b0523bcf98aull, 0x63bdd02c376eff90ull, 0x49420a5daf634789ull,
          0xdffd1969e40a41d8ull}},
        {"equake",
         {0x5a201df49f1ab986ull, 0x45a7a474258b350cull, 0x8ef32493e1773540ull,
          0x4f2f5a7d721ceb3eull, 0xe929265f6ee48579ull, 0x86f4ebaf40bef2efull,
          0x456dfc7f4b568bd0ull, 0xa867da648c9a3d04ull, 0xa9600ddddde7d5b5ull,
          0xb3d6eb9dd8c0b732ull, 0x8b7e07e0369482efull, 0xc5a7c72ea21c7515ull,
          0xeade20acb57e88f3ull}},
        {"facerec",
         {0xde87de52639f3cd0ull, 0xbfc26af605fa79b1ull, 0x678af7bca4bd5c7bull,
          0x511bbc63516457aaull, 0x540bdde771f099deull, 0xdb4a2f1a2764f56bull,
          0x0078ecff1e8dea1full, 0x2ec5421717676d26ull, 0x95b91437ba4c78feull,
          0xf7d09f7b252e0bfeull, 0x705d2730e6899993ull, 0x19b1cab610dea950ull,
          0x98746dd436117c97ull}},
        {"fma3d",
         {0x764a5287ebc9e4f1ull, 0xc8d2ecc0c1ac41c7ull, 0xa566ad1dc2ef3649ull,
          0xc228cfc36a848c93ull, 0x42093f0c95b9c4fdull, 0x2bcb649ff5a65278ull,
          0x77568aa3143ff66dull, 0xe18b259c868507cfull, 0x612ecc63f364b22aull,
          0x48ed732cf6ad03cdull, 0xb834d507ab543ee2ull, 0x92174f142b4cf7ccull,
          0x467d2f00f3c15a99ull}},
        {"galgel",
         {0x05db107b8a8f8d03ull, 0x7c4bef18b4677149ull, 0xd3478b16fb435108ull,
          0x6eb3211a17d9e231ull, 0x90ae8a59445a7056ull, 0x8a56eac9050fc6cbull,
          0x76016f5412d74efcull, 0x58a1af70261a553bull, 0x7b5b2f0d5eb4a6ecull,
          0xd7cb53734562f1d3ull, 0xf7c8dcc53cfbfae8ull, 0xa8a974af8dac90c0ull,
          0x972535b8fe9b9ac2ull}},
        {"lucas",
         {0x7aa83d818a818e59ull, 0xef14a3f005a2523dull, 0x401b8c2c2dcb6c04ull,
          0x443b6fcb3e015af5ull, 0x5c1c4bbf0396beaaull, 0x83133c12efab8a9dull,
          0x1199a872414a8a54ull, 0x779bd4a131219b2cull, 0x43c9c712fa38b3f4ull,
          0x4c13e2a2f3870155ull, 0x5424eed946741718ull, 0xe0b4a4ccb3f1330aull,
          0xb78bec96f674d237ull}},
        {"mesa",
         {0x953ae8eef186b0a1ull, 0x91d118ff00284d2bull, 0x927eaf105ce63104ull,
          0xc0cc4cf02870b356ull, 0xc6ed2d22389ec1e8ull, 0x452dfbd1048d4bcbull,
          0x7c25dfac5434abf9ull, 0xe1b4ac1d8de64399ull, 0x881b54056109b5edull,
          0x1ad316e80f575399ull, 0xc215b60763010303ull, 0xd8b2a8a4643ebf27ull,
          0xaa3fd7e022d30293ull}},
        {"mgrid",
         {0xf90a55b8566d3909ull, 0x1af2c98ee955a898ull, 0x49afad4eb84dcd7cull,
          0x23ea61be32e36bdeull, 0xba0ee035979d776full, 0x62b1497dd7bdc69eull,
          0xced28dfc00797fe2ull, 0x2da6cadeaaf3e876ull, 0x66b71b50eac480a2ull,
          0xd145aea49b6c18c5ull, 0xfba65a9bf47d2757ull, 0x7cfe913319574b09ull,
          0x67853e24e4e759ffull}},
        {"sixtrack",
         {0x7a2dc01724ebf0eeull, 0x8a4a9eea5bcd5866ull, 0x7445ace391508587ull,
          0xca327d014ba04b80ull, 0xcd086284684a50f5ull, 0xd3a01aaf9a8cf7edull,
          0x2664432151fa86a2ull, 0x6f21a065c2ea20d3ull, 0x46dc50532f954e2cull,
          0xa505292741e92decull, 0x695f8182c8b45401ull, 0x264fa8a51055acdaull,
          0x6c80fc6fb198d5efull}},
        {"swim",
         {0xdb78b59a13dfea18ull, 0x0c4a1ab78bd4d824ull, 0xc1439cc2db9c7d8aull,
          0x959502d67867a2b8ull, 0xb8037aefe1e62d0dull, 0xc324edced51a5882ull,
          0xe6f53a855b1068fdull, 0xdc82530807176687ull, 0x8412f9898ef06c63ull,
          0x788d837b52350e36ull, 0x734ace07c9079d15ull, 0x01c44b307e3cdaddull,
          0x8062b7611d4cf164ull}},
        {"wupwise",
         {0xe56264b6dd1e633eull, 0xae9ffc65652a34d4ull, 0xa02f53fb1e93f47cull,
          0x43ee5ee5176b0247ull, 0x89f1b4bf9a822759ull, 0x6c5fa8ffc9e62d2cull,
          0xca7bb33f1f1bcffbull, 0xf4838552e91e25c7ull, 0x906891eb990a2107ull,
          0x6028f4fb47432440ull, 0xf049da67ee14546aull, 0xf7dfeafeaa217b03ull,
          0x533d2461ccfbbb72ull}},
        {"bzip2",
         {0x9edc57bdbf9e55b2ull, 0x496c140ae664680bull, 0x6cae5a4ff85a1550ull,
          0xff55be2db8d3b94eull, 0x13e8e4ed39880c10ull, 0xc3042f6270baaa1dull,
          0x9bf8f224ce3e9968ull, 0xb3d05e92b2f6d88bull, 0x6dc101f8b1fa1adeull,
          0xe682aea8ea351128ull, 0xf898dfe2f81f599full, 0x520e09fac7bdc646ull,
          0x507beb153e9fafbfull}},
        {"crafty",
         {0x317f4b8da83b295full, 0x47f5b3bed89d2a72ull, 0x73e3821a3ad1e251ull,
          0x67bccc5d45e073e8ull, 0xdff3e33f46da1f83ull, 0xc99238003b1fd09cull,
          0xdbe4cb9b4b78a36cull, 0xd2185a22db973247ull, 0x94bdf7314ce2b0c1ull,
          0x63b5da15cd99703full, 0x051c35b3f4cc2809ull, 0xf6308af8ab16ee31ull,
          0xb9f99ad0675b6016ull}},
        {"eon",
         {0x27dfa6bc3c47dfb8ull, 0xc9e2454896a79e06ull, 0xd6712eaee77b2cdfull,
          0x1464c13fb0a670a3ull, 0x88667126abd23a41ull, 0xa35c91ef149f69ccull,
          0x2d6b6000deaebf1cull, 0x252ee1a761e5c399ull, 0xdb6bf1059e67ab23ull,
          0xe94c9c50f97869b2ull, 0xf04245f08a5420a6ull, 0x2968cd8277f23615ull,
          0x5cd352d6285e59e0ull}},
        {"gap",
         {0xfc591c934ecaca68ull, 0x801a503820145e95ull, 0x82347f11aa0d69b7ull,
          0x0069ff4bd4ae8e7dull, 0x75f9d259bc00ccc2ull, 0x7911ea04bb09d6cbull,
          0x685723cd6a9045ddull, 0xf55905bd446cac49ull, 0xab29935c053f6a1cull,
          0x1c1678f411a18946ull, 0x1ac0d11c43d34a14ull, 0x9c82e9f7ec81ed19ull,
          0x312b5724b6d115ccull}},
        {"gcc",
         {0x1c6585e890e38cbcull, 0x943b455394102ee4ull, 0xac1ea851c834cc3dull,
          0x33e9a7ef9bc0e202ull, 0x9e68f7ed7a20427eull, 0x71ce5fe53ec3fa3eull,
          0x35b4f17215cfd6e5ull, 0x269680d6a5a95333ull, 0xf5d66f0f39c6a660ull,
          0xe55c0846b587687dull, 0x27d2cb6448839babull, 0x0033c4ac7e9d6f31ull,
          0x00998eb5671508d5ull}},
        {"gzip",
         {0x3d8d32cc8c722772ull, 0x87ba35023fe96ce8ull, 0xadec3a2608f9059aull,
          0x38362ecad8de9e72ull, 0x2beddc4e8753fbc5ull, 0x0f610649c05a7739ull,
          0x97b28b4b9f449ef5ull, 0x04fb6bc0be30994full, 0x221baf3850d2cd6cull,
          0xf8d9d0929d2df32cull, 0x854983ca5bf8b813ull, 0x82e2e4c14e79dc48ull,
          0xf078c9a5d431b8caull}},
        {"mcf",
         {0x9377cc8a513a2d7dull, 0x9b81267880fe1b7bull, 0x01d7403de9d33f8cull,
          0xca9e1275b17cadebull, 0xb4b9f04a63a30361ull, 0x3df9a22bdaa34a58ull,
          0x0f29cd9f35529fb9ull, 0x8120d841aaa0192bull, 0x4391fcd0b0be8b06ull,
          0x67785fdb7301e1c0ull, 0xa67b3db2bbb17337ull, 0xc6ed9ec33eeb76f5ull,
          0x696d8e3a9caac04aull}},
        {"parser",
         {0x2eeb173e59b97e59ull, 0x2d235268c32aef7full, 0x38f4404ec7ab271full,
          0xa883498f4f4f6df9ull, 0x220a0c51f18dd23cull, 0xfe7af1dd72b87396ull,
          0xc165300f87b73b6full, 0xc9f3b8ffb4ffc4d2ull, 0x78b5614d69b2752dull,
          0x12782827986cf784ull, 0x6c6bea631bbe06b0ull, 0x5790cb8f27bba2c2ull,
          0xa8b542d28385339eull}},
        {"perlbmk",
         {0x2132023efff9b3e6ull, 0xc42b131dc5baf39dull, 0x8c2c1d3aaee98431ull,
          0xe8d4c9601b9ca73eull, 0x0c62f4e84c6202a8ull, 0xb8bd79708fbe8a89ull,
          0x4a5bcd7bdb2d79b9ull, 0x1eb094400000af82ull, 0x1fd121450a123525ull,
          0xcd3650223de47224ull, 0x7e0e21016aba85abull, 0x722ea4208093f2f0ull,
          0x17e499fb7ce8da9aull}},
        {"twolf",
         {0xb5f3a8c0aada75baull, 0xb08be0adee5edf4dull, 0xbd85ee889b2e2583ull,
          0x2a2b03de1148298dull, 0xcfc51fbc2e8f1524ull, 0x3c6b9160a70ea173ull,
          0xc490a19a01f86e05ull, 0x8350b1f4c101ff16ull, 0x37430af91dbb604aull,
          0x66b2d56b81e91773ull, 0x2557e5fd9a6142a7ull, 0x198ce160e4466f57ull,
          0x97bc8bb129006c19ull}},
        {"vortex",
         {0x1445507d44832f8aull, 0x692d0d101bb83af3ull, 0x87dbb482762a1b4eull,
          0x43dd93792bd803b2ull, 0x20aeb63f26c86256ull, 0xc780dc1c7051ed71ull,
          0xb1f5a09ac34d37c6ull, 0x45c56a244ded1950ull, 0x82812444f7e2be30ull,
          0x9ea5d7b7cfec2518ull, 0xd33748f5b94856d3ull, 0xdb1f43b2a462936bull,
          0x39508fc056e018cfull}},
        {"vpr",
         {0x4fd1b7084e46a6d0ull, 0xbcf8764e6c953735ull, 0x1854290f85fd05adull,
          0xca32c73140ce294cull, 0x2e47e7240cdb9968ull, 0x8b99fab646aa196bull,
          0xcb3ce0bede748a0full, 0x4dd9394c4da23316ull, 0x3987b7e254c07e77ull,
          0x53c2b332643114aeull, 0x2441f49e2c12ef0dull, 0x164e60355df071ceull,
          0x4f2d959e4ee92e10ull}},
        {"pchase",
         {0x14a03ded443ca6a2ull, 0x366ae182fc8d7aa2ull, 0x7c57fdb34efb3e47ull,
          0x0679f91ac6d0ee36ull, 0xd0394d38b8915ce4ull, 0xbaa1efb6a6258991ull,
          0x7975cc99c61ce7c6ull, 0x0f41c17de786dbc0ull, 0x95b2d9bf4f8eb66bull,
          0x50dea4bb8f36633cull, 0x2f1d88932f23aacbull, 0xebb5b267ddb23726ull,
          0x8850b408baa1332bull}},
    };

    const MatrixResult &m = goldenMatrix();
    ASSERT_EQ(m.mechanisms.size(), kGoldenMechanisms);
    const std::vector<std::string> names = goldenBenchmarks();
    ASSERT_EQ(m.benchmarks, names);

    std::vector<GoldenRow> got;
    for (std::size_t b = 0; b < names.size(); ++b)
        got.push_back(digestRow(names[b], m, b));
    expectGolden(golden, got, m.mechanisms);
}

TEST(HotPath, GoldenLockstepDigests)
{
    // The golden cells above run one config each, so no two tasks
    // ever share a lockstep group. This sweep has three L2-size
    // variants over one window: every (program, mechanism) cell is a
    // three-member group advanced over a single trace pass. One row
    // per (program, variant) in plan order, one digest per mechanism
    // in allMechanismNames() order.
    std::string text = "sweep-spec v1\n"
                       "bench pchase swim mcf gzip\n"
                       "mech";
    for (const std::string &mech : allMechanismNames())
        text += " " + mech;
    text += "\n"
            "base window.selection=arbitrary\n"
            "base window.skip=25000\n"
            "base window.length=80000\n"
            "axis hier.l2.size 256k 512k 1M\n";
    SweepSpec spec;
    std::string error;
    ASSERT_TRUE(SweepSpec::parse(text, spec, &error)) << error;

    const TaskPlan plan(spec);
    const std::vector<char> none(plan.size(), 0);
    const auto groups = plan.lockstepGroups(none, ShardSpec{});
    ASSERT_EQ(groups.size(), 4 * kGoldenMechanisms);
    for (const auto &g : groups)
        ASSERT_EQ(g.size(), 3u);

    const std::vector<GoldenRow> golden = {
        {"pchase hier.l2.size=256k",
         {0x1b5d759035efe8beull, 0x5f97fbff4a22bd1aull, 0xdb6d6634460701f0ull,
          0x3360607db650ff28ull, 0x05c03e9d99729d79ull, 0x26ea96a29651de4aull,
          0x9dce56c6b300fe26ull, 0xc7833dc0400d1faeull, 0x33280da946864163ull,
          0xe1e32d57fbac66d6ull, 0x71b1eb4ac8801c17ull, 0x160ee17f5d3eb858ull,
          0x74c91c218f27f14dull}},
        {"pchase hier.l2.size=512k",
         {0x880fa1de34a88c9bull, 0xe38eda464a255eb9ull, 0x1b9f5ae1c72182a0ull,
          0x8d3c8d37b22db5f2ull, 0xa2e8856387465685ull, 0xcf6b997c0f995d9bull,
          0x4993c77398a73be7ull, 0xb3c19a78dd814dcfull, 0x11bc83baa94211efull,
          0xd615aadb56ad2123ull, 0xa63ff246cffb1588ull, 0x4c85d007b7b27399ull,
          0x5bbadbb8ca342803ull}},
        {"pchase hier.l2.size=1M",
         {0x14a03ded443ca6a2ull, 0x366ae182fc8d7aa2ull, 0x7c57fdb34efb3e47ull,
          0x0679f91ac6d0ee36ull, 0xd0394d38b8915ce4ull, 0xbaa1efb6a6258991ull,
          0x7975cc99c61ce7c6ull, 0x0f41c17de786dbc0ull, 0x95b2d9bf4f8eb66bull,
          0x50dea4bb8f36633cull, 0x2f1d88932f23aacbull, 0xebb5b267ddb23726ull,
          0x8850b408baa1332bull}},
        {"swim hier.l2.size=256k",
         {0xd0a499aab5693d1eull, 0x6b3cb2eeff38ccb9ull, 0xefdd6841e6e4d313ull,
          0xd08dbd28975cf687ull, 0xe5a3a712789e8e65ull, 0xcf0804c2d1ed6f3full,
          0x1a52e42b3021fd7aull, 0x32b6fdbe8c46d2f0ull, 0x7e5c2b9730abfe49ull,
          0xbd6a8527d0acff84ull, 0x1770b0608bdca0c6ull, 0x02ff46f8d9548897ull,
          0x49977c0547652e1eull}},
        {"swim hier.l2.size=512k",
         {0xa5e7185dd943e52full, 0xd2e3e2050f27cc41ull, 0x443e689e98d8727dull,
          0xe930c04f6e719f16ull, 0x5a835a46295ea5daull, 0x0e746443e747191full,
          0x181400b77575f7dcull, 0x5598ab3a5b78f160ull, 0x73b44ffa136c302full,
          0xfd1e730c60d5c96bull, 0xd70f71dc7d7baa9bull, 0x190096b401d47644ull,
          0x74d99f9554365c34ull}},
        {"swim hier.l2.size=1M",
         {0xdb78b59a13dfea18ull, 0x0c4a1ab78bd4d824ull, 0xc1439cc2db9c7d8aull,
          0x959502d67867a2b8ull, 0xb8037aefe1e62d0dull, 0xc324edced51a5882ull,
          0xe6f53a855b1068fdull, 0xdc82530807176687ull, 0x8412f9898ef06c63ull,
          0x788d837b52350e36ull, 0x734ace07c9079d15ull, 0x01c44b307e3cdaddull,
          0x8062b7611d4cf164ull}},
        {"mcf hier.l2.size=256k",
         {0xfd3c516a61194cf2ull, 0x16882131e521a7daull, 0x24e0890f9daae0bdull,
          0x2ad11bc0181e3c29ull, 0xe965e456ecd9e879ull, 0x79f85c4544065288ull,
          0x2790c3be511bdf9aull, 0x44dd5402f80d04edull, 0x6174a4bf36f65da0ull,
          0xa6a4ba37b3b6e6acull, 0x11af8be427d58eeaull, 0x494fd7c31e380c5cull,
          0x47e7761b85a0b858ull}},
        {"mcf hier.l2.size=512k",
         {0x5fa0d08d784741ebull, 0xf93cea94a4d56f91ull, 0x30ba085c155e1e65ull,
          0x857e97eb064fe217ull, 0x9c100f5031ede534ull, 0x5667b4c586dafe99ull,
          0xe1ce8f545f6b51fbull, 0x0df3af267b25142aull, 0xed6da478c7111957ull,
          0xc51c3b76e89f32c9ull, 0xa3bd65742dfdf752ull, 0x5842528d6f1a444cull,
          0xaae29394ca12ccd9ull}},
        {"mcf hier.l2.size=1M",
         {0x9377cc8a513a2d7dull, 0x9b81267880fe1b7bull, 0x01d7403de9d33f8cull,
          0xca9e1275b17cadebull, 0xb4b9f04a63a30361ull, 0x3df9a22bdaa34a58ull,
          0x0f29cd9f35529fb9ull, 0x8120d841aaa0192bull, 0x4391fcd0b0be8b06ull,
          0x67785fdb7301e1c0ull, 0xa67b3db2bbb17337ull, 0xc6ed9ec33eeb76f5ull,
          0x696d8e3a9caac04aull}},
        {"gzip hier.l2.size=256k",
         {0x2c32f9112435d94eull, 0xaa1549586ececd9full, 0x6138a23bb6a0337dull,
          0xade78a4ccd1724b8ull, 0x38683992a2b0904eull, 0x276cfb2c9ba45076ull,
          0xfb9c683c920e15c0ull, 0x1b30651761c758c8ull, 0xe88c813555746b38ull,
          0x42ea2c040ecbdec8ull, 0x4cce33bc9ad99cedull, 0xf02240863b93ebfcull,
          0x8f48d3d19645604eull}},
        {"gzip hier.l2.size=512k",
         {0x3d8d32cc8c722772ull, 0xa79ad7af73325b6dull, 0xadec3a2608f9059aull,
          0x38362ecad8de9e72ull, 0x2beddc4e8753fbc5ull, 0x0f610649c05a7739ull,
          0x97b28b4b9f449ef5ull, 0x04fb6bc0be30994full, 0x221baf3850d2cd6cull,
          0xf8d9d0929d2df32cull, 0x854983ca5bf8b813ull, 0xdc854cc2120207d0ull,
          0xf078c9a5d431b8caull}},
        {"gzip hier.l2.size=1M",
         {0x3d8d32cc8c722772ull, 0x87ba35023fe96ce8ull, 0xadec3a2608f9059aull,
          0x38362ecad8de9e72ull, 0x2beddc4e8753fbc5ull, 0x0f610649c05a7739ull,
          0x97b28b4b9f449ef5ull, 0x04fb6bc0be30994full, 0x221baf3850d2cd6cull,
          0xf8d9d0929d2df32cull, 0x854983ca5bf8b813ull, 0x82e2e4c14e79dc48ull,
          0xf078c9a5d431b8caull}},

    };

    ExperimentEngine engine;
    const SweepResult res = engine.run(spec);
    ASSERT_EQ(res.variants.size(), 3u);
    std::vector<GoldenRow> got;
    for (std::size_t b = 0; b < spec.benchmarks().size(); ++b)
        for (std::size_t v = 0; v < res.variants.size(); ++v)
            got.push_back(digestRow(spec.benchmarks()[b] + " " +
                                        res.variants[v],
                                    res.matrix(v), b));
    expectGolden(golden, got, res.matrix(0).mechanisms);
}

TEST(HotPath, CounterInvariantsHoldOnEveryGoldenCell)
{
    // The model's bookkeeping identities (after CounterPoint): each
    // one is a property of every run, whatever the mechanism.
    const MatrixResult &m = goldenMatrix();
    const unsigned commit_width = quickConfig().system.core.commit_width;
    for (std::size_t i = 0; i < m.mechanisms.size(); ++i) {
        for (std::size_t b = 0; b < m.benchmarks.size(); ++b) {
            const RunOutput &out = m.outputs[i][b];
            const std::string cell =
                m.benchmarks[b] + "/" + m.mechanisms[i];
            auto stat = [&](const std::string &name) {
                const auto it = out.stats.find(name);
                if (it == out.stats.end()) {
                    ADD_FAILURE() << cell << ": no stat " << name;
                    return 0.0;
                }
                return it->second;
            };

            for (const std::string lvl : {"l1i", "l1d", "l2"}) {
                EXPECT_EQ(stat(lvl + ".demand_hits") +
                              stat(lvl + ".demand_misses"),
                          stat(lvl + ".demand_accesses"))
                    << cell << " " << lvl;
                EXPECT_LE(stat(lvl + ".delayed_hits"),
                          stat(lvl + ".demand_hits"))
                    << cell << " " << lvl;
                EXPECT_LE(stat(lvl + ".prefetch_used"),
                          stat(lvl + ".prefetch_fills"))
                    << cell << " " << lvl;
            }
            EXPECT_EQ(stat("dram.row_hits") + stat("dram.row_conflicts") +
                          stat("dram.row_empty"),
                      stat("dram.reads") + stat("dram.writes"))
                << cell;
            EXPECT_EQ(stat("dram.activates"),
                      stat("dram.row_conflicts") + stat("dram.row_empty"))
                << cell;

            const CoreResult &c = out.core;
            EXPECT_GE(c.cycles * commit_width, c.instructions) << cell;
            EXPECT_LE(c.mispredicts, c.branches) << cell;
            EXPECT_LE(c.loads + c.stores, c.instructions) << cell;
        }
    }
}
