#include "core/stream_checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdint>

namespace certchain::core {

namespace {

/// 64-bit digests round-trip as fixed-width hex strings: the JSON layer
/// stores numbers as doubles, which cannot represent every uint64 exactly.
std::string to_hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return std::string(buffer);
}

bool from_hex(std::string_view text, std::uint64_t& out) {
  if (text.empty() || text.size() > 16) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    int digit = 0;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  out = value;
  return true;
}

bool read_size(const obs::json::Value& object, const char* key,
               std::size_t& out) {
  std::uint64_t value = 0;
  if (!obs::json::read_uint(object.find(key), value)) return false;
  out = static_cast<std::size_t>(value);
  return true;
}

bool read_hex(const obs::json::Value& object, const char* key,
              std::uint64_t& out) {
  const obs::json::Value* member = object.find(key);
  if (member == nullptr || !member->is_string()) return false;
  return from_hex(member->string, out);
}

void write_reader(obs::json::Writer& writer,
                  const zeek::ReaderCheckpoint& reader) {
  writer.begin_object();
  writer.key("buffer");
  writer.value_string(reader.buffer);
  writer.key("in_body");
  writer.value_bool(reader.in_body);
  writer.key("line_offset");
  writer.value_uint(reader.line_offset);
  writer.key("bytes_consumed");
  writer.value_uint(reader.bytes_consumed);
  writer.key("lines_seen");
  writer.value_uint(reader.lines_seen);
  writer.key("records_emitted");
  writer.value_uint(reader.records_emitted);
  writer.key("lines_skipped");
  writer.value_uint(reader.lines_skipped);
  writer.key("malformed_rows");
  writer.value_uint(reader.malformed_rows);
  writer.key("rotations_seen");
  writer.value_uint(reader.rotations_seen);
  writer.key("errors");
  writer.begin_array();
  for (const zeek::ReaderLineError& error : reader.errors) {
    writer.begin_object();
    writer.key("line");
    writer.value_uint(error.line_number);
    writer.key("message");
    writer.value_string(error.message);
    writer.end_object();
  }
  writer.end_array();
  writer.end_object();
}

bool read_reader(const obs::json::Value& value, zeek::ReaderCheckpoint& out) {
  if (!value.is_object()) return false;
  const obs::json::Value* buffer = value.find("buffer");
  const obs::json::Value* in_body = value.find("in_body");
  if (buffer == nullptr || !buffer->is_string() || in_body == nullptr ||
      in_body->kind != obs::json::Value::Kind::kBool) {
    return false;
  }
  out.buffer = buffer->string;
  out.in_body = in_body->boolean;
  if (!read_size(value, "line_offset", out.line_offset) ||
      !read_size(value, "bytes_consumed", out.bytes_consumed) ||
      !read_size(value, "lines_seen", out.lines_seen) ||
      !read_size(value, "records_emitted", out.records_emitted) ||
      !read_size(value, "lines_skipped", out.lines_skipped) ||
      !read_size(value, "malformed_rows", out.malformed_rows) ||
      !read_size(value, "rotations_seen", out.rotations_seen)) {
    return false;
  }
  const obs::json::Value* errors = value.find("errors");
  if (errors == nullptr || !errors->is_array()) return false;
  for (const obs::json::Value& entry : errors->array) {
    if (!entry.is_object()) return false;
    zeek::ReaderLineError error;
    const obs::json::Value* message = entry.find("message");
    if (message == nullptr || !message->is_string() ||
        !read_size(entry, "line", error.line_number)) {
      return false;
    }
    error.message = message->string;
    out.errors.push_back(std::move(error));
  }
  return true;
}

}  // namespace

std::string encode_stream_checkpoint(const StreamCheckpoint& checkpoint,
                                     const CorpusIndex& corpus) {
  obs::json::Writer writer;
  writer.begin_object();
  writer.key("schema");
  writer.value_string(kStreamCheckpointSchema);
  writer.key("version");
  writer.value_uint(kStreamCheckpointVersion);
  writer.key("mode");
  writer.value_string(ingest_mode_name(checkpoint.mode));
  writer.key("x509_digest");
  writer.value_string(to_hex(checkpoint.x509_digest));
  writer.key("ssl_digest_state");
  writer.value_string(to_hex(checkpoint.ssl_digest_state));
  writer.key("ssl_offset");
  writer.value_uint(checkpoint.ssl_offset);
  writer.key("chunks_done");
  writer.value_uint(checkpoint.chunks_done);
  writer.key("ssl_reader");
  write_reader(writer, checkpoint.ssl_reader);
  writer.key("corpus");
  corpus.write_snapshot(writer);
  writer.end_object();
  return std::move(writer).str();
}

std::optional<StreamCheckpoint> decode_stream_checkpoint(
    std::string_view text, const zeek::CertificateIndex& by_fingerprint,
    CorpusIndex& corpus, std::string* error) {
  const auto fail = [error](const std::string& message)
      -> std::optional<StreamCheckpoint> {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };

  std::string parse_error;
  const std::optional<obs::json::Value> root =
      obs::json::parse(text, &parse_error);
  if (!root) return fail("checkpoint parse failed: " + parse_error);
  if (!root->is_object()) return fail("checkpoint is not an object");

  const obs::json::Value* schema = root->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != kStreamCheckpointSchema) {
    return fail("checkpoint schema mismatch");
  }
  std::uint64_t version = 0;
  if (!obs::json::read_uint(root->find("version"), version) ||
      version != static_cast<std::uint64_t>(kStreamCheckpointVersion)) {
    return fail("unsupported checkpoint version");
  }

  StreamCheckpoint checkpoint;
  const obs::json::Value* mode = root->find("mode");
  if (mode == nullptr || !mode->is_string()) return fail("checkpoint mode missing");
  if (mode->string == ingest_mode_name(IngestMode::kStrict)) {
    checkpoint.mode = IngestMode::kStrict;
  } else if (mode->string == ingest_mode_name(IngestMode::kLenient)) {
    checkpoint.mode = IngestMode::kLenient;
  } else {
    return fail("checkpoint mode unrecognized: " + mode->string);
  }

  if (!read_hex(*root, "x509_digest", checkpoint.x509_digest) ||
      !read_hex(*root, "ssl_digest_state", checkpoint.ssl_digest_state) ||
      !obs::json::read_uint(root->find("ssl_offset"), checkpoint.ssl_offset) ||
      !obs::json::read_uint(root->find("chunks_done"), checkpoint.chunks_done)) {
    return fail("checkpoint frontier fields malformed");
  }

  const obs::json::Value* reader = root->find("ssl_reader");
  if (reader == nullptr || !read_reader(*reader, checkpoint.ssl_reader)) {
    return fail("checkpoint ssl_reader malformed");
  }

  const obs::json::Value* snapshot = root->find("corpus");
  std::string corpus_error;
  if (snapshot == nullptr ||
      !corpus.restore_snapshot(*snapshot, by_fingerprint, &corpus_error)) {
    return fail("checkpoint corpus malformed: " + corpus_error);
  }
  return checkpoint;
}

bool write_stream_checkpoint(const std::string& path,
                             const StreamCheckpoint& checkpoint,
                             const CorpusIndex& corpus) {
  return write_file_atomic(path, encode_stream_checkpoint(checkpoint, corpus));
}

bool write_file_atomic(const std::string& path, std::string_view text) {
  const std::string tmp_path = path + ".tmp";
  std::FILE* file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr) return false;
  const bool written =
      std::fwrite(text.data(), 1, text.size(), file) == text.size();
  // fclose alone only reaches the page cache; the rename below must never
  // publish a file whose bytes could still vanish in a power loss — the
  // svc compaction resets the WAL immediately after this returns.
  const bool durable = written && std::fflush(file) == 0 &&
                       ::fsync(::fileno(file)) == 0;
  const bool closed = std::fclose(file) == 0;
  if (!durable || !closed) {
    std::remove(tmp_path.c_str());
    return false;
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return false;
  }
  // The rename itself lives in the directory entry: sync that too, so the
  // publish survives power loss. Best-effort — the file's own fsync above
  // is the hard requirement, and a lost rename merely resurfaces the old
  // file, which every caller treats as "recovery replays more".
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : (slash == 0 ? "/" : path.substr(0, slash));
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return true;
}

std::optional<std::string> read_file_text(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return std::nullopt;
  std::string text;
  char buffer[64 * 1024];
  while (true) {
    const std::size_t got = std::fread(buffer, 1, sizeof(buffer), file);
    if (got == 0) break;
    text.append(buffer, got);
  }
  const bool ok = std::ferror(file) == 0;
  std::fclose(file);
  if (!ok) return std::nullopt;
  return text;
}

}  // namespace certchain::core
