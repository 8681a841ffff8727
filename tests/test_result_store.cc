/** @file Result store unit tests: fingerprint sensitivity, exact
 *  record round-trips, schema skipping, and merge-by-append. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/result_store.hh"
#include "sim/fingerprint.hh"

using namespace microlib;

namespace
{

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "microlib_store_" + name;
}

/** Exact double identity, including the -0.0 / 0.0 distinction. */
bool
sameBits(double a, double b)
{
    std::uint64_t ba = 0, bb = 0;
    std::memcpy(&ba, &a, sizeof(ba));
    std::memcpy(&bb, &b, sizeof(bb));
    return ba == bb;
}

ResultRecord
sampleRecord()
{
    ResultRecord rec;
    rec.key.benchmark = "swim";
    rec.key.mechanism = "GHB";
    rec.key.config_hash = 0x0123456789abcdefull;
    rec.key.trace_seed = 42;
    rec.core.instructions = 100000;
    rec.core.cycles = 73211;
    rec.core.ipc = 100000.0 / 73211.0; // not exactly representable
    rec.core.loads = 20123;
    rec.core.stores = 9877;
    rec.core.branches = 15000;
    rec.core.mispredicts = 600;
    rec.stats["l1d.demand_misses"] = 1234;
    rec.stats["dram.avg_latency"] = 1.0 / 3.0;
    rec.stats["weird.tiny"] = 4.9406564584124654e-324; // denormal min
    rec.stats["weird.huge"] = 1.7976931348623157e308;
    rec.stats["weird.negzero"] = -0.0;
    return rec;
}

/** Count the record lines of a store file. */
std::size_t
countLines(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    std::size_t n = 0;
    while (std::getline(in, line))
        if (!line.empty())
            ++n;
    return n;
}

/** Whole file contents, for byte-identity checks. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::string out, line;
    while (std::getline(in, line)) {
        out += line;
        out += '\n';
    }
    return out;
}

/** A family of distinct records (benchmark names differ). */
ResultRecord
numberedRecord(unsigned i)
{
    ResultRecord rec = sampleRecord();
    rec.key.benchmark = "bench" + std::to_string(i);
    rec.core.cycles = 1000 + i;
    rec.core.ipc = 100000.0 / rec.core.cycles;
    return rec;
}

/** Append the lines of numberedRecord(first..last-1) to the file at
 *  @p path as raw text, bypassing put(). */
void
appendLines(const std::string &path, unsigned first, unsigned last)
{
    std::ofstream out(path, std::ios::app);
    for (unsigned i = first; i < last; ++i)
        out << ResultStore::formatRecord(numberedRecord(i)) << '\n';
}

} // namespace

TEST(Fingerprint, HexRoundTrip)
{
    Fingerprint fp;
    fp.mix(std::uint64_t{123});
    fp.mix(std::string("hello"));
    fp.mix(0.25);
    const std::string hex = fp.hex();
    ASSERT_EQ(hex.size(), 16u);
    std::uint64_t back = 0;
    ASSERT_TRUE(Fingerprint::parseHex(hex, back));
    EXPECT_EQ(back, fp.value());

    std::uint64_t junk;
    EXPECT_FALSE(Fingerprint::parseHex("xyz", junk));
    EXPECT_FALSE(Fingerprint::parseHex("00112233445566zz", junk));
}

TEST(Fingerprint, FieldsDoNotAlias)
{
    Fingerprint a, b;
    a.mix(std::string("ab"));
    a.mix(std::string("c"));
    b.mix(std::string("a"));
    b.mix(std::string("bc"));
    EXPECT_NE(a.value(), b.value());
}

TEST(ConfigFingerprint, StableForEqualConfigs)
{
    const RunConfig a, b;
    EXPECT_EQ(fingerprintConfig(a), fingerprintConfig(b));
}

TEST(ConfigFingerprint, SensitiveToEveryLayer)
{
    const RunConfig base;
    const std::uint64_t h0 = fingerprintConfig(base);

    RunConfig c = base;
    c.system.hier.l1d.size *= 2;
    EXPECT_NE(fingerprintConfig(c), h0) << "cache geometry";

    c = base;
    c.system.hier.l1d.finite_mshr = !c.system.hier.l1d.finite_mshr;
    EXPECT_NE(fingerprintConfig(c), h0) << "realism flag";

    c = base;
    c.system.hier.sdram.cas_latency += 1;
    EXPECT_NE(fingerprintConfig(c), h0) << "SDRAM timing";

    c = base;
    c.system.hier.memory = MemoryModelKind::ConstantLatency;
    EXPECT_NE(fingerprintConfig(c), h0) << "memory model";

    c = base;
    c.system.core.mispredict_rate += 0.01;
    EXPECT_NE(fingerprintConfig(c), h0) << "core parameter";

    c = base;
    c.scale.simpoint_trace *= 2;
    EXPECT_NE(fingerprintConfig(c), h0) << "trace window";

    c = base;
    c.selection = TraceSelection::Arbitrary;
    EXPECT_NE(fingerprintConfig(c), h0) << "trace selection";

    c = base;
    c.mech.second_guess = true;
    EXPECT_NE(fingerprintConfig(c), h0) << "mechanism option";

    c = base;
    c.mech.tcp_buffer = 1;
    EXPECT_NE(fingerprintConfig(c), h0) << "mechanism knob";
}

TEST(ConfigFingerprint, BaseCellsIgnoreMechanismOptions)
{
    // Base builds no mechanism: every mech.* setting keys its cells
    // alike, while the mechanisms those options shape key apart.
    const RunConfig def;
    RunConfig guessed = def, buffered = def, bigger = def;
    guessed.mech.second_guess = true;
    buffered.mech.tcp_buffer = 1;
    bigger.system.hier.l2.size *= 2;

    const std::uint64_t base = fingerprintCell(def, "Base");
    EXPECT_EQ(base, fingerprintConfig(def));
    EXPECT_EQ(fingerprintCell(guessed, "Base"), base);
    EXPECT_EQ(fingerprintCell(buffered, "Base"), base);
    EXPECT_NE(fingerprintCell(bigger, "Base"), base) << "system config";

    EXPECT_NE(fingerprintCell(guessed, "DBCP"),
              fingerprintCell(def, "DBCP"));
    EXPECT_EQ(fingerprintCell(guessed, "DBCP"),
              fingerprintConfig(guessed));
    EXPECT_NE(fingerprintCell(buffered, "TCP"),
              fingerprintCell(def, "TCP"));
    EXPECT_NE(fingerprintCell(guessed, "TCP"),
              fingerprintCell(def, "TCP"));
}

TEST(ResultKey, DistinguishesBenchmarkMechanismAndSeed)
{
    const std::uint64_t h = fingerprintConfig(RunConfig{});
    const ResultKey a = makeResultKey("swim", "GHB", h);
    EXPECT_EQ(a.schema, result_store_schema);
    EXPECT_NE(a.str(), makeResultKey("mcf", "GHB", h).str());
    EXPECT_NE(a.str(), makeResultKey("swim", "TP", h).str());
    ResultKey other_seed = a;
    other_seed.trace_seed += 1;
    EXPECT_NE(a.str(), other_seed.str());
    ResultKey other_schema = a;
    other_schema.schema += 1;
    EXPECT_NE(a.str(), other_schema.str());
}

TEST(ResultStoreFormat, RecordRoundTripsBitExactly)
{
    const ResultRecord rec = sampleRecord();
    const std::string line = ResultStore::formatRecord(rec);

    ResultRecord back;
    ASSERT_TRUE(ResultStore::parseRecord(line, back));
    EXPECT_EQ(back.key.str(), rec.key.str());
    EXPECT_EQ(back.core.instructions, rec.core.instructions);
    EXPECT_EQ(back.core.cycles, rec.core.cycles);
    EXPECT_EQ(back.core.loads, rec.core.loads);
    EXPECT_EQ(back.core.stores, rec.core.stores);
    EXPECT_EQ(back.core.branches, rec.core.branches);
    EXPECT_EQ(back.core.mispredicts, rec.core.mispredicts);
    EXPECT_TRUE(sameBits(back.core.ipc, rec.core.ipc));
    ASSERT_EQ(back.stats.size(), rec.stats.size());
    for (const auto &kv : rec.stats) {
        ASSERT_TRUE(back.stats.count(kv.first)) << kv.first;
        EXPECT_TRUE(sameBits(back.stats.at(kv.first), kv.second))
            << kv.first;
    }
}

TEST(ResultStoreFormat, RejectsForeignSchemaAndGarbage)
{
    ResultRecord rec;
    EXPECT_FALSE(ResultStore::parseRecord("", rec));
    EXPECT_FALSE(ResultStore::parseRecord("not a record", rec));
    EXPECT_FALSE(ResultStore::parseRecord(
        "v999 fp=0000000000000000 seed=1 bench=swim mech=TP "
        "instr=1 cycles=1 loads=0 stores=0 branches=0 mispred=0 "
        "ipc=0x1p+0 |",
        rec));
    // A torn write (truncated line) must not parse either.
    const std::string good = ResultStore::formatRecord(sampleRecord());
    EXPECT_FALSE(
        ResultStore::parseRecord(good.substr(0, good.size() / 3), rec));

    // Counts are decimal digits only: a signed number in an
    // unchecksummed line is garbage, not 2^64-1 or 7.
    const std::string legacy = good.substr(0, good.rfind(" ck=")) + " .";
    ASSERT_TRUE(ResultStore::parseRecord(legacy, rec));
    auto with = [&](const std::string &from, const std::string &to) {
        std::string line = legacy;
        const auto at = line.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return line.replace(at, from.size(), to);
    };
    EXPECT_FALSE(
        ResultStore::parseRecord(with(" instr=100000 ", " instr=-1 "), rec));
    EXPECT_FALSE(
        ResultStore::parseRecord(with(" seed=42 ", " seed=+7 "), rec));
}

TEST(ResultStore, PersistsAcrossReopen)
{
    const std::string path = tmpPath("reopen.store");
    std::remove(path.c_str());

    const ResultRecord rec = sampleRecord();
    {
        ResultStore store(path);
        EXPECT_EQ(store.size(), 0u);
        store.put(rec);
        EXPECT_EQ(store.size(), 1u);
    }
    ResultStore store(path);
    EXPECT_EQ(store.size(), 1u);
    const auto found = store.find(rec.key);
    ASSERT_TRUE(found.has_value());
    EXPECT_TRUE(sameBits(found->core.ipc, rec.core.ipc));

    // A different fingerprint misses: stale configs never match.
    ResultKey stale = rec.key;
    stale.config_hash ^= 1;
    EXPECT_FALSE(store.find(stale).has_value());
    std::remove(path.c_str());
}

TEST(ResultStore, LoadSkipsUnreadableLines)
{
    const std::string path = tmpPath("mixed.store");
    {
        std::ofstream out(path);
        out << ResultStore::formatRecord(sampleRecord()) << "\n";
        out << "v999 some future schema line\n";
        out << "garbage that is not a record\n";
        out << "\n";
    }
    ResultStore store(path);
    EXPECT_EQ(store.size(), 1u);
    std::remove(path.c_str());
}

TEST(ResultStore, MergesByConcatenation)
{
    const std::string a = tmpPath("shard_a.store");
    const std::string b = tmpPath("shard_b.store");
    const std::string merged = tmpPath("merged.store");
    std::remove(a.c_str());
    std::remove(b.c_str());

    ResultRecord ra = sampleRecord();
    ResultRecord rb = sampleRecord();
    rb.key.benchmark = "mcf";
    rb.core.ipc = 0.75;
    {
        ResultStore sa(a), sb(b);
        sa.put(ra);
        sb.put(rb);
    }
    {
        // Shard merge = file concatenation, nothing smarter.
        std::ofstream out(merged, std::ios::trunc);
        for (const auto &src : {a, b})
            out << std::ifstream(src).rdbuf();
    }
    ResultStore store(merged);
    EXPECT_EQ(store.size(), 2u);
    EXPECT_TRUE(store.find(ra.key).has_value());
    EXPECT_TRUE(store.find(rb.key).has_value());

    // merge() reads every record but writes only those the store
    // does not hold: merging the same file twice adds no line.
    for (int pass = 0; pass < 2; ++pass) {
        EXPECT_EQ(store.merge(a), 1u);
        EXPECT_EQ(countLines(merged), 2u) << "pass " << pass;
    }
    for (const auto &p : {a, b, merged})
        std::remove(p.c_str());
}

TEST(ResultStore, MergeRefusesItsOwnBackingFile)
{
    // put() appends to the backing file while merge() is still
    // reading it, so a self-merge would chase its own tail forever
    // (and fill the disk). Must refuse and leave the store intact.
    const std::string path = tmpPath("self_merge.store");
    std::remove(path.c_str());
    ResultStore store(path);
    store.put(sampleRecord());
    EXPECT_EQ(store.merge(path), 0u);
    EXPECT_EQ(store.size(), 1u);
    std::remove(path.c_str());
}

TEST(ResultStore, DuplicateKeyLastWins)
{
    const std::string path = tmpPath("dup.store");
    std::remove(path.c_str());
    ResultRecord first = sampleRecord();
    ResultRecord second = sampleRecord();
    second.core.ipc = 2.0;
    {
        ResultStore store(path);
        store.put(first);
        store.put(second);
        EXPECT_EQ(store.size(), 1u);
        EXPECT_EQ(countLines(path), 2u);
        // A record the store already holds identically adds no line.
        store.put(second);
        EXPECT_EQ(countLines(path), 2u);
    }
    ResultStore store(path);
    ASSERT_EQ(store.size(), 1u);
    EXPECT_TRUE(sameBits(store.find(first.key)->core.ipc, 2.0));
    std::remove(path.c_str());
}

TEST(ResultStoreFormat, EveryProperPrefixIsRejected)
{
    // The torn-write contract, exhaustively: a record truncated at
    // ANY byte — mid-stats included, where a cut hexfloat is still a
    // valid strtod prefix — must fail to parse, so a killed writer
    // costs exactly one run, never a silently corrupted one.
    const std::string line = ResultStore::formatRecord(sampleRecord());
    ResultRecord rec;
    ASSERT_TRUE(ResultStore::parseRecord(line, rec));
    for (std::size_t n = 0; n < line.size(); ++n)
        EXPECT_FALSE(ResultStore::parseRecord(line.substr(0, n), rec))
            << "prefix of length " << n << " parsed";
}

TEST(ResultStore, MemoryOnlyStoreWorks)
{
    ResultStore store;
    const ResultRecord rec = sampleRecord();
    EXPECT_FALSE(store.find(rec.key).has_value());
    store.put(rec);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_TRUE(store.find(rec.key).has_value());
    EXPECT_TRUE(store.path().empty());
}

TEST(ResultStore, CompactRewritesToOneRecordPerKey)
{
    const std::string path = tmpPath("compact.store");
    std::remove(path.c_str());
    {
        // A `cat`-joined store (or one written by an older version):
        // every record's line appears twice. put() never writes such
        // duplicates, so the lines are appended raw.
        appendLines(path, 0, 4);
        appendLines(path, 0, 4);
        ResultStore store(path);
        ASSERT_EQ(store.size(), 4u);
        ASSERT_EQ(countLines(path), 8u);

        EXPECT_EQ(store.compact(), 4u);
        EXPECT_EQ(store.size(), 4u);
        EXPECT_EQ(countLines(path), 4u);

        // The append stream survives compaction: later puts extend
        // the compacted file.
        store.put(numberedRecord(9));
        EXPECT_EQ(countLines(path), 5u);
    }
    // A reload of the compacted store sees every record.
    ResultStore reloaded(path);
    EXPECT_EQ(reloaded.size(), 5u);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_TRUE(reloaded.find(numberedRecord(i).key).has_value());
    std::remove(path.c_str());
}

TEST(ResultStore, CompactIsAPureFunctionOfTheRecordSet)
{
    // Two stores holding the same records in different append orders
    // (and one with duplicates) must compact to byte-identical
    // files — the property that makes compacted stores diffable.
    const std::string a_path = tmpPath("compact_a.store");
    const std::string b_path = tmpPath("compact_b.store");
    std::remove(a_path.c_str());
    std::remove(b_path.c_str());
    {
        ResultStore a(a_path);
        for (unsigned i = 0; i < 5; ++i)
            a.put(numberedRecord(i));
        for (unsigned i = 5; i-- > 0;)
            appendLines(b_path, i, i + 1);
        appendLines(b_path, 2, 3); // duplicate line
        ResultStore b(b_path);
        a.compact();
        b.compact();
    }
    const std::string a_bytes = slurp(a_path);
    EXPECT_FALSE(a_bytes.empty());
    EXPECT_EQ(a_bytes, slurp(b_path));
    std::remove(a_path.c_str());
    std::remove(b_path.c_str());
}

TEST(ResultStore, CompactOnMemoryStoreIsANoOp)
{
    ResultStore store;
    store.put(sampleRecord());
    EXPECT_EQ(store.compact(), 1u);
    EXPECT_EQ(store.size(), 1u);
}

TEST(ResultStore, QueryOpenCreatesNoFile)
{
    // A status/result query against a store that does not exist yet
    // must not conjure an empty file: the append stream opens lazily
    // on the first put(), never on construction.
    const std::string path = tmpPath("query_only.store");
    std::remove(path.c_str());
    {
        ResultStore store(path);
        EXPECT_EQ(store.size(), 0u);
        EXPECT_FALSE(store.find(sampleRecord().key).has_value());
    }
    EXPECT_FALSE(std::ifstream(path).good())
        << "query-only open created " << path;
    {
        ResultStore store(path);
        store.put(sampleRecord());
    }
    EXPECT_TRUE(std::ifstream(path).good());
    std::remove(path.c_str());
}

TEST(ResultStoreDeath, ReadOnlyStoreRefusesEveryWrite)
{
    const std::string path = tmpPath("ro.store");
    const std::string other = tmpPath("ro_other.store");
    std::remove(path.c_str());
    std::remove(other.c_str());
    {
        ResultStore rw(path);
        rw.put(sampleRecord());
        ResultStore src(other);
        src.put(sampleRecord());
    }
    ResultStore ro(path, ResultStore::Mode::ReadOnly);
    EXPECT_EQ(ro.mode(), ResultStore::Mode::ReadOnly);
    EXPECT_EQ(ro.size(), 1u); // reads work
    EXPECT_TRUE(ro.find(sampleRecord().key).has_value());
    EXPECT_EXIT(ro.put(sampleRecord()),
                testing::ExitedWithCode(1), "read-only");
    EXPECT_EXIT(ro.merge(other), testing::ExitedWithCode(1),
                "read-only");
    EXPECT_EXIT(ro.compact(), testing::ExitedWithCode(1),
                "read-only");
    std::remove(path.c_str());
    std::remove(other.c_str());
}
