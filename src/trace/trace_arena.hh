/**
 * @file
 * Persistent mmap'd trace arena: materialize each window once,
 * zero-copy share across workers, shards, and runs.
 *
 * A materialized trace is a pure function of its host-stable cache
 * key (benchmark + canonical window description — see traceCacheKey
 * in core/task_plan.hh), so it belongs in a persistent store exactly
 * as fingerprinted results belong in the ResultStore. The arena is
 * that store: one file per window under a shared directory, holding
 * the column-aligned SoA payload plus the sparse memory image. A hit
 * is mmap'd read-only and *borrowed* by the returned
 * MaterializedTrace — the hot-loop TraceView points straight into
 * the mapping, every process sharing the directory shares one page
 * cache copy, and the memory image borrows its pages from the
 * mapping too: nothing is deserialized.
 *
 * File format (docs/TRACE_ARENA.md):
 *
 *   [ArenaHeader]                  fixed-size, little-endian
 *   [key bytes][benchmark bytes]   identity (keys embed NULs: length-
 *                                  prefixed, never NUL-terminated)
 *   ...zero padding to a 64-byte boundary...
 *   [pc u32[n]]  [addr u32[n]]  [value u64[n]]      each column
 *   [op u8[n]]   [dep1 u8[n]]  [dep2 u8[n]]         64-byte aligned
 *   [image pages: {page_index u64, words u64[512], mask u64[8]}...]
 *                                  strictly ascending page index;
 *                                  each is a MemoryImage::StoredPage
 *
 * Integrity: a four-lane word-wise FNV-style checksum over
 * everything after the header (see TraceArena::checksum
 * — lanes keep validation off the warm path's critical millisecond),
 * verified on every load; a truncated, bit-flipped, foreign-schema
 * or wrong-key file, or one whose page indices do not strictly
 * ascend, is rejected (tryLoad returns null) and the
 * caller transparently regenerates. Invalidation is a schema-version
 * bump: readers ignore files of any other version.
 *
 * Publishing is write-to-tmp + atomic rename, so concurrent writers
 * race harmlessly: publish() re-probes the target first (first
 * writer wins), and because the payload is a deterministic function
 * of the key, a lost race still leaves one valid file. Readers never
 * observe a partial file.
 *
 * Residency: neither side holds a whole file. publish() streams the
 * file out through one chunk_bytes staging buffer, and validation
 * reads a mapping one chunk at a time, releasing each chunk once it
 * is checksummed. A loaded trace is therefore resident only where a
 * simulation has read it.
 */

#ifndef MICROLIB_TRACE_TRACE_ARENA_HH
#define MICROLIB_TRACE_TRACE_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "trace/window.hh"

namespace microlib
{

/** RAII read-only mmap of one arena file. MaterializedTrace holds a
 *  shared_ptr to keep the borrowed column spans alive, and a mapped
 *  trace's MemoryImage another for its pages; the last release
 *  munmaps (evicting a mapped trace frees address space only —
 *  the OS page cache owns the bytes). */
class MappedFile
{
  public:
    /** Map @p path read-only; null on any failure (open/stat/mmap).
     */
    static std::shared_ptr<const MappedFile>
    map(const std::string &path);

    ~MappedFile();

    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    const std::uint8_t *data() const { return _data; }
    std::size_t size() const { return _size; }

    /** Drop this process's pages of [@p offset, @p offset + @p size)
     *  (madvise MADV_DONTNEED; @p offset page-aligned). The bytes
     *  stay readable: the next read faults them back in from the
     *  page cache. */
    void release(std::size_t offset, std::size_t size) const;

  private:
    MappedFile(const std::uint8_t *data, std::size_t size)
        : _data(data), _size(size)
    {
    }

    const std::uint8_t *_data = nullptr;
    std::size_t _size = 0;
};

/** Arena telemetry (per-TraceArena instance, cumulative). */
struct TraceArenaStats
{
    std::size_t hits = 0;      ///< tryLoad() returned a mapped trace
    std::size_t misses = 0;    ///< no file for the key
    std::size_t rejected = 0;  ///< file present but failed validation
    std::size_t published = 0; ///< publish() wrote a new file
};

/** On-disk store of materialized trace windows, keyed by the
 *  host-stable trace-cache key. Thread-safe; the directory may be
 *  shared by any number of concurrent processes. */
class TraceArena
{
  public:
    /** Format version: bump on ANY layout or semantic change (that
     *  is the entire invalidation story — old files are simply
     *  ignored and regenerated). */
    static constexpr std::uint32_t schema_version = 1;

    /** Bytes publish() stages per write and validation reads per
     *  chunk before releasing it: a multiple of the checksum's
     *  32-byte block and of any page size. */
    static constexpr std::size_t chunk_bytes = std::size_t(1) << 20;

    /** Open (create if needed) the arena at @p dir. */
    explicit TraceArena(std::string dir);

    const std::string &dir() const { return _dir; }

    /** The file a given key lives at: <dir>/<fnv64(key)>.mltrace.
     *  Keys embed NUL bytes, so the name is the key's hash; the full
     *  key is stored (and verified) inside the file. */
    std::string pathFor(const std::string &key) const;

    /**
     * Probe the arena for @p key. On a hit, returns a
     * MaterializedTrace whose SoA columns are borrowed spans into a
     * read-only mapping of the file (the trace keeps the mapping
     * alive) and whose memory image borrows the stored pages in
     * place (the image keeps the mapping alive too). Validation
     * releases every chunk it reads, so on return only the pages
     * around the header are resident. Returns nullopt
     * on a miss or on any validation failure — wrong
     * magic/schema/key, size mismatch, checksum mismatch, page
     * indices not strictly ascending — in which case the caller
     * should regenerate (and republish).
     */
    std::optional<MaterializedTrace>
    tryLoad(const std::string &key);

    /**
     * The payload checksum: four independent FNV-style lanes over
     * 8-byte words, folded at the end, byte-wise FNV-1a for the
     * tail. The lanes break the serial xor-multiply dependency
     * chain, so validating a multi-megabyte trace costs a fraction
     * of a millisecond instead of dominating the warm-load path.
     * Format-defining: readers and writers must agree bit-for-bit
     * (schema_version guards any change).
     */
    static std::uint64_t checksum(const std::uint8_t *data,
                                  std::size_t size);

    /**
     * Stream @p trace to a tmp file through a chunk_bytes staging
     * buffer and publish it under @p key by atomic rename. The bytes
     * are exactly those of the whole file laid out at once; the
     * checksum is written into the header last. First writer wins:
     * if a valid file for the key already exists, nothing is
     * written. Returns false (with a warning) on I/O failure — the
     * arena is an accelerator, never a correctness dependency, so
     * callers proceed with their owned trace.
     */
    bool publish(const std::string &key,
                 const MaterializedTrace &trace);

    TraceArenaStats stats() const;

  private:
    std::string _dir;
    mutable std::mutex _mu; ///< guards _stats only
    TraceArenaStats _stats;
};

} // namespace microlib

#endif // MICROLIB_TRACE_TRACE_ARENA_HH
