#include "io/mapped.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "core/types.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define ESSENTIALS_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define ESSENTIALS_HAS_MMAP 0
#endif

namespace essentials::io::detail {

std::size_t page_size() noexcept {
#if ESSENTIALS_HAS_MMAP
  long const p = ::sysconf(_SC_PAGESIZE);
  return p > 0 ? static_cast<std::size_t>(p) : 4096;
#else
  return 4096;
#endif
}

file_mapping map_readonly(std::string const& path) {
  file_mapping m;
#if ESSENTIALS_HAS_MMAP
  int const fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0)
    throw graph_error("mapped_graph: cannot open '" + path + "'");
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw graph_error("mapped_graph: cannot stat '" + path + "'");
  }
  m.length = static_cast<std::size_t>(st.st_size);
  if (m.length == 0) {
    ::close(fd);
    throw graph_error("mapped_graph: empty file '" + path + "'");
  }
  void* const addr = ::mmap(nullptr, m.length, PROT_READ, MAP_PRIVATE, fd, 0);
  if (addr == MAP_FAILED) {
    ::close(fd);
    throw graph_error("mapped_graph: mmap failed for '" + path + "'");
  }
  m.addr = addr;
  m.fd = fd;
  m.heap = false;
#else
  // Portable fallback: read the whole file into heap memory.  Loses
  // demand paging but keeps the format and API working everywhere.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in)
    throw graph_error("mapped_graph: cannot open '" + path + "'");
  auto const size = static_cast<std::size_t>(in.tellg());
  if (size == 0)
    throw graph_error("mapped_graph: empty file '" + path + "'");
  in.seekg(0);
  auto* buf = new std::uint8_t[size];
  in.read(reinterpret_cast<char*>(buf), static_cast<std::streamsize>(size));
  if (!in) {
    delete[] buf;
    throw graph_error("mapped_graph: short read from '" + path + "'");
  }
  m.addr = buf;
  m.length = size;
  m.fd = -1;
  m.heap = true;
#endif
  return m;
}

void unmap(file_mapping& m) noexcept {
  if (m.addr == nullptr) {
    m = file_mapping{};
    return;
  }
#if ESSENTIALS_HAS_MMAP
  if (!m.heap) {
    ::munmap(m.addr, m.length);
    if (m.fd >= 0)
      ::close(m.fd);
    m = file_mapping{};
    return;
  }
#endif
  delete[] static_cast<std::uint8_t*>(m.addr);
  m = file_mapping{};
}

void advise(file_mapping const& m, std::size_t offset, std::size_t length,
            [[maybe_unused]] advice a) noexcept {
#if ESSENTIALS_HAS_MMAP
  if (m.addr == nullptr || m.heap || length == 0 || offset >= m.length)
    return;
  length = std::min(length, m.length - offset);
  // madvise wants page-aligned addresses: widen to page boundaries.
  std::size_t const page = page_size();
  std::size_t const lo = offset / page * page;
  std::size_t const hi = (offset + length + page - 1) / page * page;
  int native = MADV_NORMAL;
  switch (a) {
    case advice::normal: native = MADV_NORMAL; break;
    case advice::sequential: native = MADV_SEQUENTIAL; break;
    case advice::random: native = MADV_RANDOM; break;
    case advice::willneed: native = MADV_WILLNEED; break;
    case advice::dontneed: native = MADV_DONTNEED; break;
  }
  ::madvise(static_cast<std::uint8_t*>(m.addr) + lo,
            std::min(hi, m.length) - lo, native);
#else
  (void)m;
  (void)offset;
  (void)length;
#endif
}

std::size_t process_resident_bytes() noexcept {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr)
    return 0;
  unsigned long total = 0, resident = 0;
  int const got = std::fscanf(f, "%lu %lu", &total, &resident);
  std::fclose(f);
  if (got != 2)
    return 0;
  return static_cast<std::size_t>(resident) * page_size();
#else
  return 0;
#endif
}

namespace {

/// A uniquely named temp file beside `path`, written front to back and
/// renamed over `path` by `commit()`, so `path` only ever names a whole
/// file: a reader that mapped the old file keeps its inode, and a crash
/// leaves the old file or the new one.  A writer destroyed before its
/// commit (a throw on the way) removes its temp file.
class temp_file_writer {
 public:
  explicit temp_file_writer(std::string path) : path_(std::move(path)) {
    static std::atomic<std::uint64_t> counter{0};
    for (int attempt = 0; attempt < 16 && file_ == nullptr; ++attempt) {
      tmp_ = path_ + ".tmp-" + std::to_string(process_id()) + "-" +
             std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
      file_ = std::fopen(tmp_.c_str(), "wbx");  // never an existing file
    }
    if (file_ == nullptr) {
      tmp_.clear();
      throw graph_error("write_mapped_graph: cannot open '" + path_ +
                        "' for writing");
    }
  }
  ~temp_file_writer() {
    if (file_ != nullptr)
      std::fclose(file_);
    if (!tmp_.empty()) {
      std::error_code ec;
      std::filesystem::remove(tmp_, ec);
    }
  }
  temp_file_writer(temp_file_writer const&) = delete;
  temp_file_writer& operator=(temp_file_writer const&) = delete;

  void write(void const* data, std::uint64_t len) {
    if (std::fwrite(data, 1, len, file_) != len)
      fail();
    pos_ += len;
  }

  void pad_to_page() {
    static char const zeros[kMappedPage] = {};
    write(zeros, (kMappedPage - pos_ % kMappedPage) % kMappedPage);
  }

  /// Flush and fsync the temp file, rename it over `path`, and fsync the
  /// directory so that the rename itself is durable.
  void commit() {
    bool ok = std::fflush(file_) == 0;
#if ESSENTIALS_HAS_MMAP
    ok = ok && ::fsync(::fileno(file_)) == 0;
#endif
    ok = std::fclose(file_) == 0 && ok;
    file_ = nullptr;
    std::error_code ec;
    if (ok)
      std::filesystem::rename(tmp_, path_, ec);
    if (!ok || ec)
      fail();
    tmp_.clear();  // renamed: nothing left to remove
#if ESSENTIALS_HAS_MMAP
    auto dir = std::filesystem::path(path_).parent_path();
    if (dir.empty())
      dir = ".";
    int const fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    // Some filesystems cannot fsync a directory (EINVAL); nothing to make
    // durable there.
    bool const synced = fd >= 0 && (::fsync(fd) == 0 || errno == EINVAL);
    if (fd >= 0)
      ::close(fd);
    if (!synced)
      fail();
#endif
  }

 private:
  static long process_id() noexcept {
#if ESSENTIALS_HAS_MMAP
    return static_cast<long>(::getpid());
#else
    return 0;
#endif
  }

  [[noreturn]] void fail() const {
    throw graph_error("write_mapped_graph: write failed for '" + path_ + "'");
  }

  std::string path_;
  std::string tmp_;
  std::FILE* file_ = nullptr;
  std::uint64_t pos_ = 0;
};

}  // namespace

void write_mapped_sections(std::string const& path, mapped_header const& h,
                           void const* rows, void const* blocks,
                           void const* adj, void const* weights) {
  temp_file_writer out(path);
  out.write(&h, sizeof h);
  out.pad_to_page();
  for (auto const& [data, len] :
       {std::pair{rows, h.len_rows}, std::pair{blocks, h.len_blocks},
        std::pair{adj, h.len_adj}, std::pair{weights, h.len_weights}}) {
    out.write(data, len);
    out.pad_to_page();
  }
  out.commit();
}

}  // namespace essentials::io::detail
