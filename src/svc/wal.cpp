#include "svc/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "core/stream_checkpoint.hpp"
#include "util/hash.hpp"
#include "zeek/log_io.hpp"

namespace certchain::svc {

namespace {

void put_u32_be(std::string& out, std::uint32_t value) {
  out.push_back(static_cast<char>((value >> 24) & 0xFF));
  out.push_back(static_cast<char>((value >> 16) & 0xFF));
  out.push_back(static_cast<char>((value >> 8) & 0xFF));
  out.push_back(static_cast<char>(value & 0xFF));
}

void put_u64_be(std::string& out, std::uint64_t value) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

std::uint32_t get_u32_be(std::string_view bytes) {
  return (static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[0])) << 24) |
         (static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[1])) << 16) |
         (static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[2])) << 8) |
         static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[3]));
}

std::uint64_t get_u64_be(std::string_view bytes) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value = (value << 8) | static_cast<std::uint8_t>(bytes[i]);
  }
  return value;
}

void write_string_array(obs::json::Writer& writer, std::string_view key,
                        const std::vector<std::string>& rows) {
  writer.key(key);
  writer.begin_array();
  for (const std::string& row : rows) writer.value_string(row);
  writer.end_array();
}

bool read_string_array(const obs::json::Value& object, std::string_view key,
                       std::vector<std::string>& out) {
  const obs::json::Value* member = object.find(key);
  if (member == nullptr || !member->is_array()) return false;
  out.reserve(member->array.size());
  for (const obs::json::Value& item : member->array) {
    if (!item.is_string()) return false;
    out.push_back(item.string);
  }
  return true;
}

/// Decodes one record payload; a payload that doesn't carry the expected
/// shape reads as damage (the caller treats it as the torn tail).
std::optional<WalRecord> decode_wal_payload(std::string_view payload) {
  const std::optional<obs::json::Value> root = obs::json::parse(payload);
  if (!root || !root->is_object()) return std::nullopt;
  WalRecord record;
  if (!obs::json::read_uint(root->find("seq"), record.seq) || record.seq == 0) {
    return std::nullopt;
  }
  const obs::json::Value* key = root->find("key");
  if (key == nullptr || !key->is_string()) return std::nullopt;
  record.idempotency_key = key->string;
  if (!read_string_array(*root, "ssl_rows", record.ssl_rows) ||
      !read_string_array(*root, "x509_rows", record.x509_rows)) {
    return std::nullopt;
  }
  return record;
}

bool write_fully(int fd, std::string_view bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::string encode_wal_header() {
  std::string header(kWalMagic);
  header.push_back(static_cast<char>(kWalVersion));
  header.append(3, '\0');
  return header;
}

std::string encode_wal_record(const WalRecord& record) {
  obs::json::Writer writer;
  writer.begin_object();
  writer.key("seq");
  writer.value_uint(record.seq);
  writer.key("key");
  writer.value_string(record.idempotency_key);
  write_string_array(writer, "ssl_rows", record.ssl_rows);
  write_string_array(writer, "x509_rows", record.x509_rows);
  writer.end_object();
  const std::string payload = std::move(writer).str();

  std::string framed;
  framed.reserve(kWalRecordHeaderBytes + payload.size());
  put_u32_be(framed, static_cast<std::uint32_t>(payload.size()));
  put_u64_be(framed, util::fnv1a64(payload));
  framed.append(payload);
  return framed;
}

std::optional<WalReplay> WriteAheadLog::replay(const std::string& path,
                                               std::string* error) {
  const auto fail = [error](const std::string& message) -> std::optional<WalReplay> {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };

  WalReplay replay;
  const std::optional<std::string> text = core::read_file_text(path);
  if (!text.has_value()) {
    // Missing file = empty log, ready to be created on open().
    if (::access(path.c_str(), F_OK) == 0) {
      return fail("wal unreadable: " + path);
    }
    replay.header_valid = true;
    return replay;
  }

  if (text->size() < kWalHeaderBytes) {
    // Shorter than the header itself: a crash between open(O_CREAT) and the
    // header fsync on first arming. If what made it to disk is a prefix of
    // our header the file is an empty log awaiting its re-stamp by open();
    // anything else is a foreign file we must not truncate over.
    if (encode_wal_header().compare(0, text->size(), *text) != 0) {
      return fail("wal header is not a " + std::string(kWalMagic) +
                  " prefix: " + path);
    }
    replay.header_valid = true;
    replay.torn_bytes = text->size();
    return replay;
  }
  if (text->compare(0, kWalMagic.size(), kWalMagic) != 0) {
    return fail("wal header is not " + std::string(kWalMagic) + ": " + path);
  }
  const std::uint8_t version =
      static_cast<std::uint8_t>((*text)[kWalMagic.size()]);
  if (version != kWalVersion) {
    return fail("unsupported wal version " + std::to_string(version));
  }
  replay.header_valid = true;
  replay.good_bytes = kWalHeaderBytes;

  std::uint64_t last_seq = 0;
  std::size_t offset = kWalHeaderBytes;
  while (offset < text->size()) {
    // Anything that fails from here on is the torn tail: a partial record
    // header, a declared length past EOF or past the sanity cap, a checksum
    // mismatch, an unparseable payload, or a sequence break.
    if (text->size() - offset < kWalRecordHeaderBytes) break;
    const std::uint64_t length =
        get_u32_be(std::string_view(*text).substr(offset, 4));
    if (length > kMaxWalPayloadBytes) break;
    if (text->size() - offset - kWalRecordHeaderBytes < length) break;
    const std::uint64_t checksum =
        get_u64_be(std::string_view(*text).substr(offset + 4, 8));
    const std::string_view payload =
        std::string_view(*text).substr(offset + kWalRecordHeaderBytes, length);
    if (util::fnv1a64(payload) != checksum) break;
    std::optional<WalRecord> record = decode_wal_payload(payload);
    if (!record.has_value() || record->seq <= last_seq) break;
    last_seq = record->seq;
    offset += kWalRecordHeaderBytes + length;
    replay.good_bytes = offset;
    replay.records.push_back(*std::move(record));
  }
  replay.torn_bytes = text->size() - replay.good_bytes;
  return replay;
}

bool WriteAheadLog::open(const std::string& path, std::uint64_t good_bytes,
                         std::uint64_t next_seq, std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    return false;
  };

  close();
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) return fail("open(" + path + ")");
  path_ = path;
  next_seq_ = next_seq == 0 ? 1 : next_seq;

  const off_t end = ::lseek(fd_, 0, SEEK_END);
  if (end < 0) return fail("lseek(" + path + ")");

  // Anything replay() could not vouch for is dropped: the torn tail of an
  // existing log, or the partial header of a file that died before its
  // first fsync (good_bytes < kWalHeaderBytes reads as "no header").
  if (good_bytes < kWalHeaderBytes) good_bytes = 0;
  if (static_cast<std::uint64_t>(end) > good_bytes) {
    if (::ftruncate(fd_, static_cast<off_t>(good_bytes)) != 0) {
      return fail("ftruncate(" + path + ")");
    }
    if (::fsync(fd_) != 0) return fail("fsync truncate");
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) return fail("lseek end");
  if (good_bytes == 0) {
    // Fresh (or re-stamped) file: write the header.
    if (!write_fully(fd_, encode_wal_header())) return fail("write header");
    if (::fsync(fd_) != 0) return fail("fsync header");
    good_bytes = kWalHeaderBytes;
  }
  bytes_on_disk_ = good_bytes;
  return true;
}

bool WriteAheadLog::append(WalRecord& record, std::string* error) {
  if (fd_ < 0) {
    if (error != nullptr) *error = "wal is not open";
    return false;
  }
  if (poisoned_) {
    if (error != nullptr) {
      *error = "wal is poisoned by an earlier failed append; recover before "
               "appending";
    }
    return false;
  }
  record.seq = next_seq_;
  const std::string framed = encode_wal_record(record);

  std::string io_error;
  bool allow_rollback = true;
  bool committed;
  if (injected_fault_ != InjectedFault::kNone) {
    // Test shim: land half the frame on disk, then report failure — the
    // shape ENOSPC mid-record leaves behind.
    const InjectedFault fault =
        std::exchange(injected_fault_, InjectedFault::kNone);
    write_fully(fd_, std::string_view(framed).substr(0, framed.size() / 2));
    io_error = "wal write: injected fault";
    allow_rollback = fault != InjectedFault::kTornWriteNoRollback;
    committed = false;
  } else if (!write_fully(fd_, framed)) {
    io_error = std::string("wal write: ") + std::strerror(errno);
    committed = false;
  } else if (::fsync(fd_) != 0) {
    io_error = std::string("wal fsync: ") + std::strerror(errno);
    committed = false;
  } else {
    committed = true;
  }

  if (!committed) {
    // A failed write may have landed part of the frame; a failed fsync
    // leaves bytes of unknown durability. Either way the file now holds
    // bytes past the last committed record, and a later successful append
    // written after them would be discarded by replay as the torn tail —
    // losing an acknowledged record. Roll the file back to the committed
    // prefix; if even that fails, poison the log so every further append
    // fails closed until recovery truncates the damage.
    const bool rolled_back =
        allow_rollback &&
        ::ftruncate(fd_, static_cast<off_t>(bytes_on_disk_)) == 0 &&
        ::fsync(fd_) == 0 && ::lseek(fd_, 0, SEEK_END) >= 0;
    if (!rolled_back) poisoned_ = true;
    if (error != nullptr) {
      *error = io_error + (poisoned_ ? "; rollback failed, wal poisoned"
                                     : "; rolled back");
    }
    record.seq = 0;  // not committed; the seq will be reused
    return false;
  }
  ++next_seq_;
  bytes_on_disk_ += framed.size();
  return true;
}

bool WriteAheadLog::reset(std::string* error) {
  if (fd_ < 0) {
    if (error != nullptr) *error = "wal is not open";
    return false;
  }
  const std::string path = path_;
  const std::uint64_t next_seq = next_seq_;
  if (!core::write_file_atomic(path, encode_wal_header())) {
    if (error != nullptr) *error = "wal reset failed: " + path;
    return false;
  }
  // The open fd still points at the replaced inode; reopen the new file.
  ::close(fd_);
  fd_ = -1;
  return open(path, kWalHeaderBytes, next_seq, error);
}

void WriteAheadLog::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  path_.clear();
  bytes_on_disk_ = 0;
  // Poison belongs to the damaged open file; the next open() re-validates
  // the on-disk state (replay + truncate) before accepting appends again.
  poisoned_ = false;
}

// --- snapshot ---------------------------------------------------------------

std::string encode_svc_snapshot(const SvcSnapshot& snapshot,
                                const core::CorpusIndex& corpus) {
  obs::json::Writer writer;
  writer.begin_object();
  writer.key("schema");
  writer.value_string(kSvcSnapshotSchema);
  writer.key("version");
  writer.value_uint(kSvcSnapshotVersion);
  writer.key("generation");
  writer.value_uint(snapshot.generation);
  writer.key("wal_seq");
  writer.value_uint(snapshot.wal_seq);
  write_string_array(writer, "appended_x509_rows", snapshot.appended_x509_rows);
  writer.key("applied");
  writer.begin_array();
  for (const AppliedAppend& entry : snapshot.applied) {
    const AppendResult& result = entry.result;
    writer.begin_object();
    writer.key("key");
    writer.value_string(entry.key);
    writer.key("wal_seq");
    writer.value_uint(result.wal_seq);
    writer.key("generation");
    writer.value_uint(result.generation);
    writer.key("ssl_added");
    writer.value_uint(result.ssl_added);
    writer.key("x509_added");
    writer.value_uint(result.x509_added);
    writer.key("ssl_malformed");
    writer.value_uint(result.ssl_malformed);
    writer.key("x509_malformed");
    writer.value_uint(result.x509_malformed);
    writer.key("unique_chains");
    writer.value_uint(result.unique_chains);
    writer.key("connections");
    writer.value_uint(result.connections);
    writer.end_object();
  }
  writer.end_array();
  writer.key("corpus");
  corpus.write_snapshot(writer);
  writer.end_object();
  return std::move(writer).str();
}

std::optional<SvcSnapshot> decode_svc_snapshot(std::string_view text,
                                               zeek::LogJoiner& joiner,
                                               core::CorpusIndex& corpus,
                                               std::string* error) {
  const auto fail = [error](const std::string& message) -> std::optional<SvcSnapshot> {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };

  std::string parse_error;
  const std::optional<obs::json::Value> root =
      obs::json::parse(text, &parse_error);
  if (!root) return fail("snapshot parse failed: " + parse_error);
  if (!root->is_object()) return fail("snapshot is not an object");

  const obs::json::Value* schema = root->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != kSvcSnapshotSchema) {
    return fail("snapshot schema mismatch");
  }
  std::uint64_t version = 0;
  if (!obs::json::read_uint(root->find("version"), version) ||
      version != static_cast<std::uint64_t>(kSvcSnapshotVersion)) {
    return fail("unsupported snapshot version");
  }

  SvcSnapshot snapshot;
  if (!obs::json::read_uint(root->find("generation"), snapshot.generation) ||
      !obs::json::read_uint(root->find("wal_seq"), snapshot.wal_seq)) {
    return fail("snapshot frontier fields malformed");
  }
  if (!read_string_array(*root, "appended_x509_rows",
                         snapshot.appended_x509_rows)) {
    return fail("snapshot appended_x509_rows malformed");
  }
  const obs::json::Value* applied = root->find("applied");
  if (applied == nullptr || !applied->is_array()) {
    return fail("snapshot applied ledger malformed");
  }
  for (const obs::json::Value& entry : applied->array) {
    if (!entry.is_object()) return fail("snapshot applied entry malformed");
    AppliedAppend item;
    AppendResult& result = item.result;
    const obs::json::Value* key = entry.find("key");
    if (key == nullptr || !key->is_string() ||
        !obs::json::read_uint(entry.find("wal_seq"), result.wal_seq) ||
        !obs::json::read_uint(entry.find("generation"), result.generation) ||
        !obs::json::read_uint(entry.find("ssl_added"), result.ssl_added) ||
        !obs::json::read_uint(entry.find("x509_added"), result.x509_added) ||
        !obs::json::read_uint(entry.find("ssl_malformed"), result.ssl_malformed) ||
        !obs::json::read_uint(entry.find("x509_malformed"), result.x509_malformed) ||
        !obs::json::read_uint(entry.find("unique_chains"), result.unique_chains) ||
        !obs::json::read_uint(entry.find("connections"), result.connections)) {
      return fail("snapshot applied entry malformed");
    }
    item.key = key->string;
    snapshot.applied.push_back(std::move(item));
  }

  // The appended rows restore the joiner to its pre-crash certificate view;
  // the corpus snapshot then resolves its chain fingerprints against it. A
  // row that no longer parses means the snapshot is not ours — reject it.
  for (std::size_t i = 0; i < snapshot.appended_x509_rows.size(); ++i) {
    const auto record = zeek::parse_x509_row(snapshot.appended_x509_rows[i]);
    if (!record.has_value()) {
      return fail("snapshot appended_x509_rows[" + std::to_string(i) +
                  "] does not parse");
    }
    joiner.add(*record);
  }
  const obs::json::Value* corpus_block = root->find("corpus");
  std::string corpus_error;
  if (corpus_block == nullptr ||
      !corpus.restore_snapshot(*corpus_block, joiner.by_fingerprint(),
                               &corpus_error)) {
    return fail("snapshot corpus malformed: " + corpus_error);
  }
  return snapshot;
}

std::string snapshot_path_for(const std::string& wal_path) {
  return wal_path + ".snapshot";
}

}  // namespace certchain::svc
