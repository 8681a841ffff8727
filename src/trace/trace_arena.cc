#include "trace/trace_arena.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
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

/**
 * Validate the mapped file against @p key: magic, schema, geometry
 * (declared sizes must reproduce the actual file size exactly),
 * stored key identity, the full-payload checksum, and strictly
 * ascending page indices (pages are borrowed into the image's slot
 * table as stored, so a repeated index would shadow silently). On
 * success @p out points at the file's header.
 */
bool
validate(const MappedFile &mf, const std::string &key,
         const ArenaHeader *&out)
{
    if (mf.size() < sizeof(ArenaHeader))
        return false;
    ArenaHeader hdr;
    std::memcpy(&hdr, mf.data(), sizeof(hdr)); // alignment-safe copy
    if (hdr.magic != arena_magic ||
        hdr.schema != TraceArena::schema_version)
        return false;
    if (hdr.key_len != key.size())
        return false;
    const Layout l =
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
    if (TraceArena::checksum(mf.data() + sizeof(ArenaHeader),
                             mf.size() - sizeof(ArenaHeader)) !=
        hdr.checksum)
        return false;
    const std::uint8_t *entry = mf.data() + l.pages;
    for (std::uint64_t i = 0, prev = 0; i < hdr.pages;
         ++i, entry += page_entry_bytes) {
        std::uint64_t index = 0;
        std::memcpy(&index, entry, sizeof(index));
        if (i > 0 && index <= prev)
            return false;
        prev = index;
    }
    out = reinterpret_cast<const ArenaHeader *>(mf.data());
    return true;
}

void
appendBytes(std::vector<std::uint8_t> &buf, const void *data,
            std::size_t size)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    buf.insert(buf.end(), p, p + size);
}

void
padTo(std::vector<std::uint8_t> &buf, std::size_t off)
{
    buf.resize(off, 0);
}

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
    constexpr std::uint64_t prime = 0x100000001b3ull;
    std::uint64_t lane[4] = {0xcbf29ce484222325ull,
                             0x84222325cbf29ce4ull,
                             0x9ce484222325cbf2ull,
                             0x2325cbf29ce48422ull};
    std::size_t i = 0;
    for (; i + 32 <= size; i += 32) {
        std::uint64_t w[4];
        std::memcpy(w, data + i, sizeof(w));
        lane[0] = (lane[0] ^ w[0]) * prime;
        lane[1] = (lane[1] ^ w[1]) * prime;
        lane[2] = (lane[2] ^ w[2]) * prime;
        lane[3] = (lane[3] ^ w[3]) * prime;
    }
    std::uint64_t h = lane[0];
    h = (h * prime) ^ lane[1];
    h = (h * prime) ^ lane[2];
    h = (h * prime) ^ lane[3];
    h *= prime;
    for (; i < size; ++i) {
        h ^= data[i];
        h *= prime;
    }
    return h;
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
    const ArenaHeader *hdr = nullptr;
    if (!validate(*mf, key, hdr)) {
        // Torn write, bit rot, another schema, or a hash-colliding
        // foreign key: all equally "not our trace". The caller
        // regenerates (and republishes over this file).
        warn("trace arena: rejecting invalid ", path,
             " (will regenerate)");
        std::lock_guard<std::mutex> lock(_mu);
        ++_stats.rejected;
        return std::nullopt;
    }

    const Layout l =
        layoutFor(hdr->key_len, hdr->bench_len,
                  static_cast<std::size_t>(hdr->n),
                  static_cast<std::size_t>(hdr->pages));
    const std::uint8_t *base = mf->data();

    MaterializedTrace t;
    t.benchmark.assign(reinterpret_cast<const char *>(
                           base + sizeof(ArenaHeader) + hdr->key_len),
                       hdr->bench_len);
    t.window.skip = hdr->window_skip;
    t.window.length = hdr->window_length;

    TraceView v;
    v.pc = reinterpret_cast<const std::uint32_t *>(base + l.pc);
    v.addr = reinterpret_cast<const std::uint32_t *>(base + l.addr);
    v.value = reinterpret_cast<const Word *>(base + l.value);
    v.op = reinterpret_cast<const OpClass *>(base + l.op);
    v.dep1 = base + l.dep1;
    v.dep2 = base + l.dep2;
    v.n = static_cast<std::size_t>(hdr->n);
    t.soa.borrow(v);

    // The image borrows the stored pages in place and holds the
    // mapping itself, so it stays valid if it outlives the trace;
    // loading allocates only its slot table.
    t.image = MemoryImage::borrow(
        reinterpret_cast<const MemoryImage::StoredPage *>(base + l.pages),
        static_cast<std::size_t>(hdr->pages), mf);
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
        const ArenaHeader *hdr = nullptr;
        if (validate(*existing, key, hdr))
            return true;
    }

    const TraceView v = trace.view();
    const std::size_t n = v.n;
    const std::size_t pages =
        trace.image ? trace.image->allocatedPages() : 0;
    const Layout l =
        layoutFor(key.size(), trace.benchmark.size(), n, pages);

    std::vector<std::uint8_t> buf;
    buf.reserve(l.total);
    ArenaHeader hdr;
    hdr.key_len = static_cast<std::uint32_t>(key.size());
    hdr.bench_len = static_cast<std::uint32_t>(trace.benchmark.size());
    hdr.n = n;
    hdr.pages = pages;
    hdr.window_skip = trace.window.skip;
    hdr.window_length = trace.window.length;
    hdr.file_bytes = l.total;
    appendBytes(buf, &hdr, sizeof(hdr)); // checksum patched below
    appendBytes(buf, key.data(), key.size());
    appendBytes(buf, trace.benchmark.data(), trace.benchmark.size());
    padTo(buf, l.pc);
    appendBytes(buf, v.pc, n * sizeof(std::uint32_t));
    padTo(buf, l.addr);
    appendBytes(buf, v.addr, n * sizeof(std::uint32_t));
    padTo(buf, l.value);
    appendBytes(buf, v.value, n * sizeof(Word));
    padTo(buf, l.op);
    appendBytes(buf, v.op, n * sizeof(OpClass));
    padTo(buf, l.dep1);
    appendBytes(buf, v.dep1, n * sizeof(std::uint8_t));
    padTo(buf, l.dep2);
    appendBytes(buf, v.dep2, n * sizeof(std::uint8_t));
    padTo(buf, l.pages);
    if (trace.image) {
        trace.image->forEachPage([&](Addr page_index,
                                     const Word *words,
                                     const std::uint64_t *mask) {
            std::uint64_t idx = page_index;
            appendBytes(buf, &idx, sizeof(idx));
            appendBytes(buf, words, MemoryImage::page_bytes);
            appendBytes(buf, mask,
                        (MemoryImage::words_per_page / 64) *
                            sizeof(std::uint64_t));
        });
    }
    if (buf.size() != l.total) {
        warn("trace arena: layout mismatch while serializing ", path);
        return false;
    }
    const std::uint64_t ck = TraceArena::checksum(buf.data() + sizeof(hdr),
                                        buf.size() - sizeof(hdr));
    std::memcpy(buf.data() + offsetof(ArenaHeader, checksum), &ck,
                sizeof(ck));

    // tmp + atomic rename: readers only ever see complete files.
    // The tmp name is per-process + per-call, so concurrent writers
    // never clobber each other's partial output.
    static std::atomic<std::uint64_t> seq{0};
    const std::string tmp =
        path + ".tmp." +
        std::to_string(static_cast<unsigned long>(::getpid())) + "." +
        std::to_string(seq.fetch_add(1));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out ||
            !out.write(reinterpret_cast<const char *>(buf.data()),
                       static_cast<std::streamsize>(buf.size()))) {
            warn("trace arena: cannot write ", tmp);
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("trace arena: cannot publish ", path);
        std::remove(tmp.c_str());
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
