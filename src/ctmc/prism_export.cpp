#include "ctmc/prism_export.hpp"

#include <fstream>
#include <map>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace choreo::ctmc {

std::string to_prism_tra(const Generator& generator) {
  const std::size_t n = generator.state_count();
  std::size_t count = 0;
  std::ostringstream body;
  const CsrMatrix q = generator.rows();
  for (std::size_t s = 0; s < n; ++s) {
    const auto columns = q.row_columns(s);
    const auto values = q.row_values(s);
    for (std::size_t k = 0; k < columns.size(); ++k) {
      if (columns[k] == s) continue;
      body << s << ' ' << columns[k] << ' ' << util::format_double(values[k])
           << '\n';
      ++count;
    }
  }
  std::ostringstream out;
  out << n << ' ' << count << '\n' << body.str();
  return out.str();
}

std::string to_prism_sta(const Generator& generator) {
  std::ostringstream out;
  out << "(s)\n";
  for (std::size_t s = 0; s < generator.state_count(); ++s) {
    out << s << ":(" << s << ")\n";
  }
  return out.str();
}

std::string to_prism_lab(
    const Generator& generator, std::size_t initial_state,
    const std::vector<std::pair<std::string, std::vector<std::size_t>>>&
        extra_labels) {
  CHOREO_ASSERT(initial_state < generator.state_count());
  std::ostringstream header;
  header << "0=\"init\" 1=\"deadlock\"";
  for (std::size_t i = 0; i < extra_labels.size(); ++i) {
    header << ' ' << (i + 2) << "=\"" << extra_labels[i].first << '"';
  }

  std::map<std::size_t, std::vector<std::size_t>> labels_of;  // state -> ids
  labels_of[initial_state].push_back(0);
  for (std::size_t s : generator.absorbing_states()) {
    labels_of[s].push_back(1);
  }
  for (std::size_t i = 0; i < extra_labels.size(); ++i) {
    for (std::size_t s : extra_labels[i].second) {
      CHOREO_ASSERT(s < generator.state_count());
      labels_of[s].push_back(i + 2);
    }
  }

  std::ostringstream out;
  out << header.str() << '\n';
  for (const auto& [state, ids] : labels_of) {
    out << state << ':';
    for (std::size_t id : ids) out << ' ' << id;
    out << '\n';
  }
  return out.str();
}

void write_prism_files(
    const Generator& generator, const std::string& base_path,
    std::size_t initial_state,
    const std::vector<std::pair<std::string, std::vector<std::size_t>>>&
        extra_labels) {
  auto write = [](const std::string& path, const std::string& contents) {
    std::ofstream stream(path, std::ios::binary);
    if (!stream) throw util::Error(util::msg("cannot open '", path, "'"));
    stream << contents;
    if (!stream) throw util::Error(util::msg("failed writing '", path, "'"));
  };
  write(base_path + ".tra", to_prism_tra(generator));
  write(base_path + ".sta", to_prism_sta(generator));
  write(base_path + ".lab", to_prism_lab(generator, initial_state, extra_labels));
}

}  // namespace choreo::ctmc
