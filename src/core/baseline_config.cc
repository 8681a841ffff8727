#include "core/baseline_config.hh"

#include "sim/options.hh"

namespace microlib
{

BaselineConfig
makeBaseline()
{
    BaselineConfig cfg;

    // Processor core (Table 1): 2 GHz, 128-RUU, 128-LSQ, 8-wide.
    cfg.core.ruu_size = 128;
    cfg.core.lsq_size = 128;
    cfg.core.fetch_width = 8;
    cfg.core.commit_width = 8;
    cfg.core.fu.int_alu = 8;
    cfg.core.fu.int_mult = 3;
    cfg.core.fu.fp_alu = 6;
    cfg.core.fu.fp_mult = 2;
    cfg.core.fu.ls_units = 4;

    // L1 data cache: 32 KB direct-mapped, 32 B lines, 4 ports,
    // 8 MSHRs x 4 reads, 1-cycle latency, write-back,
    // allocate-on-write.
    cfg.hier.l1d.name = "l1d";
    cfg.hier.l1d.size = 32 * 1024;
    cfg.hier.l1d.line = 32;
    cfg.hier.l1d.assoc = 1;
    cfg.hier.l1d.ports = 4;
    cfg.hier.l1d.latency = 1;
    cfg.hier.l1d.mshrs = 8;
    cfg.hier.l1d.reads_per_mshr = 4;

    // L1 instruction cache: 32 KB 4-way LRU, 1-cycle latency.
    cfg.hier.l1i.name = "l1i";
    cfg.hier.l1i.size = 32 * 1024;
    cfg.hier.l1i.line = 32;
    cfg.hier.l1i.assoc = 4;
    cfg.hier.l1i.ports = 1;
    cfg.hier.l1i.latency = 1;
    cfg.hier.l1i.mshrs = 8;
    cfg.hier.l1i.reads_per_mshr = 4;

    // L2 unified: 1 MB 4-way LRU, 64 B lines, 1 port, 12-cycle
    // latency, 8 MSHRs x 4 reads.
    cfg.hier.l2.name = "l2";
    cfg.hier.l2.size = 1024 * 1024;
    cfg.hier.l2.line = 64;
    cfg.hier.l2.assoc = 4;
    cfg.hier.l2.ports = 1;
    cfg.hier.l2.latency = 12;
    cfg.hier.l2.mshrs = 8;
    cfg.hier.l2.reads_per_mshr = 4;

    // L1/L2 bus: 32-byte wide at core frequency.
    cfg.hier.l1l2_bus.name = "l1l2_bus";
    cfg.hier.l1l2_bus.bytes_per_beat = 32;
    cfg.hier.l1l2_bus.cycles_per_beat = 1;

    // Front-side bus: 64 bytes at 400 MHz = 5 CPU cycles per beat.
    cfg.hier.fsb.name = "fsb";
    cfg.hier.fsb.bytes_per_beat = 64;
    cfg.hier.fsb.cycles_per_beat = 5;

    // SDRAM (Table 1 timings, in CPU cycles).
    cfg.hier.memory = MemoryModelKind::Sdram;
    cfg.hier.sdram.name = "dram";
    cfg.hier.sdram.banks = 4;
    cfg.hier.sdram.rows = 8192;
    cfg.hier.sdram.columns = 1024;
    cfg.hier.sdram.ras_to_ras = 20;
    cfg.hier.sdram.ras_active = 80;
    cfg.hier.sdram.ras_to_cas = 30;
    cfg.hier.sdram.cas_latency = 30;
    cfg.hier.sdram.ras_precharge = 30;
    cfg.hier.sdram.ras_cycle = 110;
    cfg.hier.sdram.queue_entries = 32;
    cfg.hier.sdram.line_bytes = 64;

    return cfg;
}

ParamTable
describeBaseline(const BaselineConfig &cfg)
{
    ParamTable t;
    t.section("Processor core");
    t.add("Processor Frequency", "2 GHz");
    t.add("Instruction Windows",
          std::to_string(cfg.core.ruu_size) + "-RUU, " +
              std::to_string(cfg.core.lsq_size) + "-LSQ");
    t.add("Fetch, Decode, Issue width",
          std::to_string(cfg.core.fetch_width) +
              " instructions per cycle");
    t.add("Functional units",
          std::to_string(cfg.core.fu.int_alu) + " IntALU, " +
              std::to_string(cfg.core.fu.int_mult) + " IntMult/Div, " +
              std::to_string(cfg.core.fu.fp_alu) + " FPALU, " +
              std::to_string(cfg.core.fu.fp_mult) + " FPMult/Div, " +
              std::to_string(cfg.core.fu.ls_units) +
              " Load/Store Units");
    t.add("Commit width",
          "up to " + std::to_string(cfg.core.commit_width) +
              " instructions per cycle");

    t.section("Memory Hierarchy");
    auto cache_line = [&t](const CacheParams &c) {
        t.add(c.name + " size", c.size);
        t.add(c.name + " assoc", c.assoc);
        t.add(c.name + " line", c.line);
        t.add(c.name + " ports", c.ports);
        t.add(c.name + " MSHRs", c.mshrs);
        t.add(c.name + " latency", c.latency);
    };
    cache_line(cfg.hier.l1d);
    cache_line(cfg.hier.l1i);
    cache_line(cfg.hier.l2);

    t.section("Bus");
    t.add("L1/L2 bus",
          std::to_string(cfg.hier.l1l2_bus.bytes_per_beat) +
              " bytes/beat");
    t.add("FSB", std::to_string(cfg.hier.fsb.bytes_per_beat) +
                     " bytes/beat, " +
                     std::to_string(cfg.hier.fsb.cycles_per_beat) +
                     " cpu cycles/beat");

    if (cfg.hier.memory == MemoryModelKind::Sdram) {
        const auto &d = cfg.hier.sdram;
        t.section("SDRAM");
        t.add("Banks", d.banks);
        t.add("Rows", d.rows);
        t.add("Columns", d.columns);
        t.add("RAS To RAS Delay", d.ras_to_ras);
        t.add("RAS Active Time", d.ras_active);
        t.add("RAS to CAS Delay", d.ras_to_cas);
        t.add("CAS Latency", d.cas_latency);
        t.add("RAS Precharge Time", d.ras_precharge);
        t.add("RAS Cycle Time", d.ras_cycle);
        t.add("Controller Queue", d.queue_entries);
    } else {
        t.section("Memory");
        t.add("Constant latency", cfg.hier.const_latency);
    }
    return t;
}

TraceScale
makeTraceScale()
{
    TraceScale s;
    if (envFlag("MICROLIB_QUICK")) {
        s.simpoint_trace /= 4;
        s.simpoint_interval /= 4;
        s.arbitrary_skip /= 4;
        s.arbitrary_length /= 4;
    }
    return s;
}

} // namespace microlib
