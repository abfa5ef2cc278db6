// Plain-text table rendering for the bench harnesses. Every reproduced paper
// table/figure is printed through TextTable so the output format is uniform
// and diffable across runs.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace certchain::util {

/// Column alignment.
enum class Align { kLeft, kRight };

/// A simple aligned-column text table.
///
///   TextTable t({"Port", "%"});
///   t.add_row({"443", "97.21"});
///   std::cout << t.render();
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Sets per-column alignment; default is left for the first column and
  /// right for the rest (typical "label, numbers..." layout).
  void set_alignments(std::vector<Align> alignments);

  /// Adds a data row; must match the header arity.
  void add_row(std::vector<std::string> cells);

  /// Adds a horizontal separator row.
  void add_separator();

  /// Renders with a header rule, e.g.
  ///   Port     %
  ///   -----  -----
  ///   443    97.21
  std::string render() const;

 private:
  struct Row {
    bool separator = false;
    std::vector<std::string> cells;
  };

  std::vector<std::string> headers_;
  std::vector<Align> alignments_;
  std::vector<Row> rows_;
};

/// Prints a titled section banner around a table (used by bench binaries).
std::string render_banner(const std::string& title);

}  // namespace certchain::util
