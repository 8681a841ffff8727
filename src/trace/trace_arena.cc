#include "trace/trace_arena.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <vector>

#include "sim/fingerprint.hh"
#include "sim/logging.hh"
#include "trace/memory_image.hh"

namespace microlib
{

namespace
{

constexpr std::uint64_t arena_magic = 0x4e45524154524c4dull; // "MLTRAREN"

/** Bytes of one serialized image page: index + words + written mask. */
constexpr std::size_t page_entry_bytes =
    sizeof(std::uint64_t) + MemoryImage::page_bytes +
    (MemoryImage::words_per_page / 64) * sizeof(std::uint64_t);
// tryLoad() borrows the page section in place as StoredPage[pages]:
// the in-memory layout must be the file layout, with no padding.
static_assert(sizeof(MemoryImage::StoredPage) == page_entry_bytes &&
                  offsetof(MemoryImage::StoredPage, page) ==
                      sizeof(std::uint64_t) &&
                  offsetof(MemoryImage::Page, written_mask) ==
                      MemoryImage::page_bytes,
              "arena page entries must be MemoryImage::StoredPage");

/** Fixed little-endian file header. The checksum covers every byte
 *  AFTER the header (identity strings, padding, columns, pages), so
 *  a proper prefix of a valid file can never validate. */
struct ArenaHeader
{
    std::uint64_t magic = arena_magic;
    std::uint32_t schema = TraceArena::schema_version;
    std::uint32_t key_len = 0;
    std::uint32_t bench_len = 0;
    std::uint32_t reserved = 0;
    std::uint64_t n = 0;     ///< trace records (SoA column length)
    std::uint64_t pages = 0; ///< serialized image pages
    std::uint64_t window_skip = 0;
    std::uint64_t window_length = 0;
    std::uint64_t file_bytes = 0; ///< total size, header included
    std::uint64_t checksum = 0; ///< TraceArena::checksum of [72, end)
};
static_assert(sizeof(ArenaHeader) == 72,
              "arena header layout is part of the file format");

constexpr std::size_t
align64(std::size_t off)
{
    return (off + 63) & ~std::size_t(63);
}

/** Column/page offsets for given identity + counts. Every column
 *  starts 64-byte aligned from the file base (mmap bases are page
 *  aligned, so mapped column pointers are 64-byte aligned too). */
struct Layout
{
    std::size_t pc = 0;
    std::size_t addr = 0;
    std::size_t value = 0;
    std::size_t op = 0;
    std::size_t dep1 = 0;
    std::size_t dep2 = 0;
    std::size_t pages = 0;
    std::size_t total = 0;
};

Layout
layoutFor(std::size_t key_len, std::size_t bench_len, std::size_t n,
          std::size_t pages)
{
    Layout l;
    l.pc = align64(sizeof(ArenaHeader) + key_len + bench_len);
    l.addr = align64(l.pc + n * sizeof(std::uint32_t));
    l.value = align64(l.addr + n * sizeof(std::uint32_t));
    l.op = align64(l.value + n * sizeof(Word));
    l.dep1 = align64(l.op + n * sizeof(OpClass));
    l.dep2 = align64(l.dep1 + n * sizeof(std::uint8_t));
    l.pages = align64(l.dep2 + n * sizeof(std::uint8_t));
    l.total = l.pages + pages * page_entry_bytes;
    return l;
}

/** TraceArena::checksum, fed in pieces of any size: whole 32-byte
 *  blocks go to the lanes, a partial block waits in `_carry` for the
 *  next piece, and finish() folds the lanes and hashes the tail. */
class Checksum
{
  public:
    void
    update(const std::uint8_t *data, std::size_t size)
    {
        if (_carried) {
            const std::size_t take = std::min(size, 32 - _carried);
            std::memcpy(_carry + _carried, data, take);
            _carried += take;
            data += take;
            size -= take;
            if (_carried < 32)
                return;
            blocks(_carry, 32);
            _carried = 0;
        }
        const std::size_t whole = size & ~std::size_t(31);
        blocks(data, whole);
        _carried = size - whole;
        std::memcpy(_carry, data + whole, _carried);
    }

    std::uint64_t
    finish() const
    {
        std::uint64_t h = _lane[0];
        h = (h * prime) ^ _lane[1];
        h = (h * prime) ^ _lane[2];
        h = (h * prime) ^ _lane[3];
        h *= prime;
        for (std::size_t i = 0; i < _carried; ++i) {
            h ^= _carry[i];
            h *= prime;
        }
        return h;
    }

  private:
    static constexpr std::uint64_t prime = 0x100000001b3ull;

    void
    blocks(const std::uint8_t *data, std::size_t size)
    {
        for (std::size_t i = 0; i < size; i += 32) {
            std::uint64_t w[4];
            std::memcpy(w, data + i, sizeof(w));
            _lane[0] = (_lane[0] ^ w[0]) * prime;
            _lane[1] = (_lane[1] ^ w[1]) * prime;
            _lane[2] = (_lane[2] ^ w[2]) * prime;
            _lane[3] = (_lane[3] ^ w[3]) * prime;
        }
    }

    std::uint64_t _lane[4] = {0xcbf29ce484222325ull,
                              0x84222325cbf29ce4ull,
                              0x9ce484222325cbf2ull,
                              0x2325cbf29ce48422ull};
    std::uint8_t _carry[32] = {};
    std::size_t _carried = 0;
};

/** What validate() read from a valid file. */
struct Validated
{
    ArenaHeader hdr;
    Layout layout;
    /** The stored page indices, strictly ascending. */
    std::vector<std::uint64_t> indices;
};

/**
 * Validate the mapped file against @p key: magic, schema, geometry
 * (declared sizes must reproduce the actual file size exactly),
 * stored key identity, the full-payload checksum, and strictly
 * ascending page indices (pages are borrowed into the image's slot
 * table as stored, so a repeated index would shadow silently).
 *
 * The payload is read one TraceArena::chunk_bytes chunk at a time:
 * each chunk is checksummed, the page indices it holds are checked
 * and collected into @p out, and the chunk is then released from
 * this process, so validating leaves the file's pages in the page
 * cache but not resident here.
 */
bool
validate(const MappedFile &mf, const std::string &key, Validated &out)
{
    if (mf.size() < sizeof(ArenaHeader))
        return false;
    ArenaHeader &hdr = out.hdr;
    std::memcpy(&hdr, mf.data(), sizeof(hdr)); // alignment-safe copy
    if (hdr.magic != arena_magic ||
        hdr.schema != TraceArena::schema_version)
        return false;
    if (hdr.key_len != key.size())
        return false;
    const Layout &l = out.layout =
        layoutFor(hdr.key_len, hdr.bench_len,
                  static_cast<std::size_t>(hdr.n),
                  static_cast<std::size_t>(hdr.pages));
    if (hdr.file_bytes != mf.size() || l.total != mf.size())
        return false;
    if (hdr.n != hdr.window_length)
        return false;
    if (std::memcmp(mf.data() + sizeof(ArenaHeader), key.data(),
                    key.size()) != 0)
        return false;

    std::vector<std::uint64_t> &indices = out.indices;
    indices.clear();
    indices.reserve(static_cast<std::size_t>(hdr.pages));
    Checksum ck;
    std::size_t entry = l.pages; // the next page index's offset
    for (std::size_t lo = 0; lo < mf.size();
         lo += TraceArena::chunk_bytes) {
        const std::size_t hi =
            std::min(mf.size(), lo + TraceArena::chunk_bytes);
        const std::size_t from = std::max(lo, sizeof(ArenaHeader));
        ck.update(mf.data() + from, hi - from);
        for (; indices.size() < hdr.pages &&
               entry + sizeof(std::uint64_t) <= hi;
             entry += page_entry_bytes) {
            std::uint64_t index = 0;
            std::memcpy(&index, mf.data() + entry, sizeof(index));
            if (!indices.empty() && index <= indices.back())
                return false;
            indices.push_back(index);
        }
        mf.release(lo, hi - lo);
    }
    return ck.finish() == hdr.checksum;
}

/** Writes one new arena file at a tmp path through a staging buffer
 *  of TraceArena::chunk_bytes, checksumming every byte after the
 *  header on its way out; finish() writes the checksum into the
 *  header and closes the file. The destructor removes the tmp path,
 *  so a file that was not renamed into place never outlives its
 *  writer, whatever path publish() leaves by. */
class StagedWriter
{
  public:
    explicit StagedWriter(std::string tmp)
        : _tmp(std::move(tmp)),
          _fd(::open(_tmp.c_str(),
                     O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666)),
          _buf(std::make_unique_for_overwrite<std::uint8_t[]>(
              TraceArena::chunk_bytes))
    {
    }

    ~StagedWriter()
    {
        if (_fd >= 0)
            ::close(_fd);
        std::remove(_tmp.c_str()); // gone already once renamed
    }

    StagedWriter(const StagedWriter &) = delete;
    StagedWriter &operator=(const StagedWriter &) = delete;

    bool opened() const { return _fd >= 0; }

    /** Bytes put so far. */
    std::size_t offset() const { return _flushed + _fill; }

    void
    put(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        while (size) {
            const std::size_t n =
                std::min(size, TraceArena::chunk_bytes - _fill);
            std::memcpy(_buf.get() + _fill, p, n);
            _fill += n;
            p += n;
            size -= n;
            if (_fill == TraceArena::chunk_bytes)
                flush();
        }
    }

    /** Zero-pad up to file offset @p off. */
    void
    padTo(std::size_t off)
    {
        static constexpr std::uint8_t zeros[64] = {};
        while (offset() < off)
            put(zeros, std::min(off - offset(), sizeof(zeros)));
    }

    /** Flush, patch the header's checksum and close the file. False
     *  on any failed write or close. */
    bool
    finish()
    {
        flush();
        const std::uint64_t sum = _ck.finish();
        _ok = _ok && writeAll(&sum, sizeof(sum),
                              offsetof(ArenaHeader, checksum));
        _ok = ::close(_fd) == 0 && _ok;
        _fd = -1;
        return _ok;
    }

  private:
    std::string _tmp;
    int _fd;
    std::unique_ptr<std::uint8_t[]> _buf;
    std::size_t _fill = 0;    ///< staged bytes
    std::size_t _flushed = 0; ///< bytes already in the file
    Checksum _ck;
    bool _ok = true;

    void
    flush()
    {
        const std::size_t skip =
            _flushed < sizeof(ArenaHeader)
                ? std::min(_fill, sizeof(ArenaHeader) - _flushed)
                : 0;
        _ck.update(_buf.get() + skip, _fill - skip);
        _ok = _ok && writeAll(_buf.get(), _fill, _flushed);
        _flushed += _fill;
        _fill = 0;
    }

    bool
    writeAll(const void *data, std::size_t size, std::size_t at)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        while (size) {
            const ssize_t n = ::pwrite(_fd, p, size,
                                       static_cast<off_t>(at));
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            p += n;
            at += static_cast<std::size_t>(n);
            size -= static_cast<std::size_t>(n);
        }
        return true;
    }
};

} // namespace

std::shared_ptr<const MappedFile>
MappedFile::map(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return nullptr;
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
        ::close(fd);
        return nullptr;
    }
    const auto size = static_cast<std::size_t>(st.st_size);
    void *base = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
    ::close(fd); // the mapping keeps the file alive
    if (base == MAP_FAILED)
        return nullptr;
    return std::shared_ptr<const MappedFile>(new MappedFile(
        static_cast<const std::uint8_t *>(base), size));
}

void
MappedFile::release(std::size_t offset, std::size_t size) const
{
    // A read-only shared mapping: dropping its pages loses nothing,
    // and a later read faults them back in from the page cache.
    ::madvise(const_cast<std::uint8_t *>(_data) + offset, size,
              MADV_DONTNEED);
}

MappedFile::~MappedFile()
{
    if (_data)
        ::munmap(const_cast<std::uint8_t *>(_data), _size);
}

TraceArena::TraceArena(std::string dir) : _dir(std::move(dir))
{
    if (_dir.empty())
        fatal("TraceArena needs a directory");
    std::error_code ec;
    std::filesystem::create_directories(_dir, ec);
    if (ec)
        fatal("TraceArena: cannot create ", _dir, ": ", ec.message());
}

std::uint64_t
TraceArena::checksum(const std::uint8_t *data, std::size_t size)
{
    Checksum ck;
    ck.update(data, size);
    return ck.finish();
}

std::string
TraceArena::pathFor(const std::string &key) const
{
    Fingerprint fp;
    fp.mix(key);
    return _dir + "/" + fp.hex() + ".mltrace";
}

std::optional<MaterializedTrace>
TraceArena::tryLoad(const std::string &key)
{
    const std::string path = pathFor(key);
    auto mf = MappedFile::map(path);
    if (!mf) {
        std::lock_guard<std::mutex> lock(_mu);
        ++_stats.misses;
        return std::nullopt;
    }
    Validated valid;
    if (!validate(*mf, key, valid)) {
        // Torn write, bit rot, another schema, or a hash-colliding
        // foreign key: all equally "not our trace". The caller
        // regenerates (and republishes over this file).
        warn("trace arena: rejecting invalid ", path,
             " (will regenerate)");
        std::lock_guard<std::mutex> lock(_mu);
        ++_stats.rejected;
        return std::nullopt;
    }

    const ArenaHeader &hdr = valid.hdr;
    const Layout &l = valid.layout;
    const std::uint8_t *base = mf->data();

    MaterializedTrace t;
    t.benchmark.assign(reinterpret_cast<const char *>(
                           base + sizeof(ArenaHeader) + hdr.key_len),
                       hdr.bench_len);
    t.window.skip = hdr.window_skip;
    t.window.length = hdr.window_length;

    TraceView v;
    v.pc = reinterpret_cast<const std::uint32_t *>(base + l.pc);
    v.addr = reinterpret_cast<const std::uint32_t *>(base + l.addr);
    v.value = reinterpret_cast<const Word *>(base + l.value);
    v.op = reinterpret_cast<const OpClass *>(base + l.op);
    v.dep1 = base + l.dep1;
    v.dep2 = base + l.dep2;
    v.n = static_cast<std::size_t>(hdr.n);
    t.soa.borrow(v);

    // The image borrows the stored pages in place and holds the
    // mapping itself, so it stays valid if it outlives the trace.
    // Its slot table comes from the indices validation collected, so
    // loading reads no page entry again: a page becomes resident
    // only when a simulation reads it.
    t.image = MemoryImage::borrow(
        reinterpret_cast<const MemoryImage::StoredPage *>(base + l.pages),
        valid.indices, mf);
    t.mapping = std::move(mf);

    {
        std::lock_guard<std::mutex> lock(_mu);
        ++_stats.hits;
    }
    return t;
}

bool
TraceArena::publish(const std::string &key,
                    const MaterializedTrace &trace)
{
    const std::string path = pathFor(key);

    // First writer wins: if a valid file is already in place (a
    // sibling worker or an earlier run got here first), keep it —
    // its readers may be mid-map, and the payload is a deterministic
    // function of the key anyway.
    if (auto existing = MappedFile::map(path)) {
        Validated valid;
        if (validate(*existing, key, valid))
            return true;
    }

    const TraceView v = trace.view();
    const std::size_t n = v.n;
    const std::size_t pages =
        trace.image ? trace.image->allocatedPages() : 0;
    const Layout l =
        layoutFor(key.size(), trace.benchmark.size(), n, pages);

    // tmp + atomic rename: readers only ever see complete files.
    // The tmp name is per-process + per-call, so concurrent writers
    // never clobber each other's partial output.
    static std::atomic<std::uint64_t> seq{0};
    const std::string tmp =
        path + ".tmp." +
        std::to_string(static_cast<unsigned long>(::getpid())) + "." +
        std::to_string(seq.fetch_add(1));

    // The file streams out through one staging buffer: no copy of
    // the whole file is ever held.
    StagedWriter out(tmp);
    if (!out.opened()) {
        warn("trace arena: cannot write ", tmp);
        return false;
    }
    ArenaHeader hdr;
    hdr.key_len = static_cast<std::uint32_t>(key.size());
    hdr.bench_len = static_cast<std::uint32_t>(trace.benchmark.size());
    hdr.n = n;
    hdr.pages = pages;
    hdr.window_skip = trace.window.skip;
    hdr.window_length = trace.window.length;
    hdr.file_bytes = l.total;
    out.put(&hdr, sizeof(hdr)); // checksum written by finish()
    out.put(key.data(), key.size());
    out.put(trace.benchmark.data(), trace.benchmark.size());
    out.padTo(l.pc);
    out.put(v.pc, n * sizeof(std::uint32_t));
    out.padTo(l.addr);
    out.put(v.addr, n * sizeof(std::uint32_t));
    out.padTo(l.value);
    out.put(v.value, n * sizeof(Word));
    out.padTo(l.op);
    out.put(v.op, n * sizeof(OpClass));
    out.padTo(l.dep1);
    out.put(v.dep1, n * sizeof(std::uint8_t));
    out.padTo(l.dep2);
    out.put(v.dep2, n * sizeof(std::uint8_t));
    out.padTo(l.pages);
    if (trace.image) {
        trace.image->forEachPage([&](Addr page_index,
                                     const Word *words,
                                     const std::uint64_t *mask) {
            const std::uint64_t idx = page_index;
            out.put(&idx, sizeof(idx));
            out.put(words, MemoryImage::page_bytes);
            out.put(mask, (MemoryImage::words_per_page / 64) *
                              sizeof(std::uint64_t));
        });
    }
    if (out.offset() != l.total) {
        warn("trace arena: layout mismatch while serializing ", path);
        return false;
    }
    if (!out.finish()) {
        warn("trace arena: cannot write ", tmp);
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("trace arena: cannot publish ", path);
        return false;
    }
    {
        std::lock_guard<std::mutex> lock(_mu);
        ++_stats.published;
    }
    return true;
}

TraceArenaStats
TraceArena::stats() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _stats;
}

} // namespace microlib
