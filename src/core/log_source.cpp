#include "core/log_source.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace certchain::core {

namespace {

class TextLogSource final : public LogSource {
 public:
  TextLogSource(std::string_view view, std::string name)
      : view_(view), name_(std::move(name)) {}

  std::string_view name() const override { return name_; }
  std::uint64_t size_hint() const override { return view_.size(); }

  bool seek(std::uint64_t offset) override {
    if (offset > view_.size()) return false;
    pos_ = static_cast<std::size_t>(offset);
    return true;
  }

  std::size_t read(std::string& out, std::size_t max_bytes) override {
    const std::size_t n = std::min(max_bytes, view_.size() - pos_);
    out.assign(view_.data() + pos_, n);
    pos_ += n;
    return n;
  }

 private:
  std::string_view view_;
  std::string name_;
  std::size_t pos_ = 0;
};

class FileLogSource final : public LogSource {
 public:
  FileLogSource(std::FILE* file, std::string path, std::uint64_t size)
      : file_(file), path_(std::move(path)), size_(size) {}
  ~FileLogSource() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  std::string_view name() const override { return path_; }
  std::uint64_t size_hint() const override { return size_; }

  bool seek(std::uint64_t offset) override {
    return std::fseek(file_, static_cast<long>(offset), SEEK_SET) == 0;
  }

  std::size_t read(std::string& out, std::size_t max_bytes) override {
    out.resize(max_bytes);
    const std::size_t n = std::fread(out.data(), 1, max_bytes, file_);
    out.resize(n);
    return n;
  }

 private:
  std::FILE* file_;
  std::string path_;
  std::uint64_t size_;
};

class FunctionLogSource final : public LogSource {
 public:
  FunctionLogSource(std::function<std::size_t(std::string&, std::size_t)> producer,
                    std::string name, std::function<void()> rewind)
      : producer_(std::move(producer)),
        rewind_(std::move(rewind)),
        name_(std::move(name)) {}

  std::string_view name() const override { return name_; }

  bool seek(std::uint64_t offset) override {
    if (offset != 0) return false;
    if (rewind_) rewind_();
    return true;
  }

  std::size_t read(std::string& out, std::size_t max_bytes) override {
    return producer_(out, max_bytes);
  }

 private:
  std::function<std::size_t(std::string&, std::size_t)> producer_;
  std::function<void()> rewind_;
  std::string name_;
};

}  // namespace

std::unique_ptr<LogSource> make_text_source(std::string_view text,
                                            std::string name) {
  return std::make_unique<TextLogSource>(text, std::move(name));
}

std::unique_ptr<LogSource> open_file_source(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return nullptr;
  std::uint64_t size = 0;
  if (std::fseek(file, 0, SEEK_END) == 0) {
    const long end = std::ftell(file);
    if (end > 0) size = static_cast<std::uint64_t>(end);
    std::rewind(file);
  }
  return std::make_unique<FileLogSource>(file, path, size);
}

std::unique_ptr<LogSource> make_function_source(
    std::function<std::size_t(std::string&, std::size_t)> producer,
    std::string name, std::function<void()> rewind) {
  return std::make_unique<FunctionLogSource>(std::move(producer),
                                             std::move(name), std::move(rewind));
}

}  // namespace certchain::core
