#include "serve/manifest.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "util/string_util.h"

namespace simrankpp {

namespace {

// A manifest line split into its first token and the rest ("key value").
struct KeyValue {
  std::string key;
  std::string value;
};

KeyValue SplitKeyValue(std::string_view line) {
  size_t split = line.find_first_of(" \t");
  if (split == std::string_view::npos) {
    return {std::string(line), ""};
  }
  return {std::string(line.substr(0, split)),
          std::string(TrimWhitespace(line.substr(split + 1)))};
}

Status LineError(size_t line_number, const std::string& message) {
  return Status::InvalidArgument(
      StringPrintf("manifest line %zu: %s", line_number, message.c_str()));
}

// Strict numeric parsers: the whole value must consume, and only the
// characters the format documents are accepted (strtoull would happily
// wrap "-1" into a huge unsigned value).
bool ParseSize(const std::string& value, size_t* out) {
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (errno == ERANGE || end == nullptr || *end != '\0') return false;
  *out = static_cast<size_t>(parsed);
  return true;
}

bool ParseDouble(const std::string& value, double* out) {
  if (value.empty()) return false;
  char* end = nullptr;
  double parsed = std::strtod(value.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  *out = parsed;
  return true;
}

bool ParseHex64(const std::string& value, uint64_t* out) {
  if (value.empty() || value.size() > 16 ||
      value.find_first_not_of("0123456789abcdefABCDEF") !=
          std::string::npos) {
    return false;
  }
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(value.c_str(), &end, 16);
  if (end == nullptr || *end != '\0') return false;
  *out = parsed;
  return true;
}

bool ParseOnOff(const std::string& value, bool* out) {
  if (value == "on") {
    *out = true;
    return true;
  }
  if (value == "off") {
    *out = false;
    return true;
  }
  return false;
}

std::string ResolvePath(const std::string& base_dir,
                        const std::string& path) {
  if (base_dir.empty() || path.empty()) return path;
  std::filesystem::path p(path);
  if (p.is_absolute()) return path;
  return (std::filesystem::path(base_dir) / p).lexically_normal().string();
}

// Applies per-entry defaults and checks required keys once an entry ends.
Status FinishEntry(ManifestEntry* entry, bool bid_filter_set,
                   size_t line_number) {
  if (entry->graph_path.empty()) {
    return LineError(line_number, "tenant \"" + entry->tenant +
                                      "\" is missing the required "
                                      "\"graph\" key");
  }
  if (entry->snapshot_path.empty() && !entry->on_demand) {
    return LineError(line_number,
                     "tenant \"" + entry->tenant +
                         "\" is missing the required \"snapshot\" key "
                         "(only \"scoring on-demand\" tenants may omit it)");
  }
  if (!entry->on_demand && !entry->engine.empty()) {
    return LineError(line_number,
                     "tenant \"" + entry->tenant +
                         "\" sets \"engine\" but scoring is precomputed; "
                         "\"engine\" only applies with "
                         "\"scoring on-demand\"");
  }
  if (entry->expected_checksum.has_value() &&
      entry->snapshot_path.empty()) {
    return LineError(line_number,
                     "tenant \"" + entry->tenant +
                         "\" pins a \"checksum\" but has no \"snapshot\" "
                         "to check it against");
  }
  // The default on-demand engine is the one engine that answers
  // single-source rows today.
  if (entry->on_demand && entry->engine.empty()) {
    entry->engine = "linearized";
  }
  // Unless the manifest says otherwise, the bid filter follows whether a
  // bid file was given — a filter with no bid list would drop everything.
  if (!bid_filter_set) {
    entry->pipeline.apply_bid_filter = !entry->bid_path.empty();
  }
  return Status::OK();
}

}  // namespace

const ManifestEntry* ServingManifest::Find(std::string_view tenant) const {
  for (const ManifestEntry& entry : entries) {
    if (entry.tenant == tenant) return &entry;
  }
  return nullptr;
}

Result<ServingManifest> ParseManifest(const std::string& content,
                                      const std::string& base_dir) {
  ServingManifest manifest;
  manifest.version = 0;

  std::unordered_set<std::string> seen_tenants;
  ManifestEntry* current = nullptr;
  bool current_bid_filter_set = false;
  size_t current_started_at = 0;

  std::istringstream lines(content);
  std::string raw_line;
  size_t line_number = 0;
  while (std::getline(lines, raw_line)) {
    ++line_number;
    std::string_view line = TrimWhitespace(raw_line);
    if (line.empty() || line.front() == '#') continue;

    KeyValue kv = SplitKeyValue(line);
    if (manifest.version == 0) {
      // The first directive must declare the version.
      if (kv.key != "manifest-version") {
        return LineError(line_number,
                         "expected \"manifest-version " +
                             std::to_string(kManifestFormatVersion) +
                             "\" before any other directive");
      }
      size_t version = 0;
      if (!ParseSize(kv.value, &version) ||
          version != static_cast<size_t>(kManifestFormatVersion)) {
        return LineError(
            line_number,
            StringPrintf("unsupported manifest version \"%s\"; this build "
                         "reads version %d",
                         kv.value.c_str(), kManifestFormatVersion));
      }
      manifest.version = kManifestFormatVersion;
      continue;
    }

    if (kv.key == "tenant") {
      if (current != nullptr) {
        SRPP_RETURN_NOT_OK(FinishEntry(current, current_bid_filter_set,
                                       current_started_at));
      }
      if (kv.value.empty()) {
        return LineError(line_number, "\"tenant\" needs a name");
      }
      if (!seen_tenants.insert(kv.value).second) {
        return LineError(line_number,
                         "duplicate tenant \"" + kv.value + "\"");
      }
      manifest.entries.emplace_back();
      current = &manifest.entries.back();
      current->tenant = kv.value;
      current_bid_filter_set = false;
      current_started_at = line_number;
      continue;
    }

    if (current == nullptr) {
      return LineError(line_number, "\"" + kv.key +
                                        "\" appears before any "
                                        "\"tenant\" directive");
    }

    if (kv.key == "graph") {
      current->graph_path = ResolvePath(base_dir, kv.value);
    } else if (kv.key == "snapshot") {
      current->snapshot_path = ResolvePath(base_dir, kv.value);
    } else if (kv.key == "bids") {
      current->bid_path = ResolvePath(base_dir, kv.value);
    } else if (kv.key == "side") {
      if (kv.value == "query-query") {
        current->expected_side = SnapshotSide::kQueryQuery;
      } else if (kv.value == "ad-ad") {
        current->expected_side = SnapshotSide::kAdAd;
      } else {
        return LineError(line_number, "\"side\" must be \"query-query\" or "
                                      "\"ad-ad\", got \"" +
                                          kv.value + "\"");
      }
    } else if (kv.key == "scoring") {
      if (kv.value == "precomputed") {
        current->on_demand = false;
      } else if (kv.value == "on-demand") {
        current->on_demand = true;
      } else {
        return LineError(line_number,
                         "\"scoring\" must be \"precomputed\" or "
                         "\"on-demand\", got \"" +
                             kv.value + "\"");
      }
    } else if (kv.key == "engine") {
      if (kv.value.empty()) {
        return LineError(line_number, "\"engine\" needs an engine name");
      }
      current->engine = kv.value;
    } else if (kv.key == "checksum") {
      uint64_t checksum = 0;
      if (!ParseHex64(kv.value, &checksum)) {
        return LineError(line_number,
                         "\"checksum\" must be up to 16 hex digits, got \"" +
                             kv.value + "\"");
      }
      current->expected_checksum = checksum;
    } else if (kv.key == "max-rewrites") {
      if (!ParseSize(kv.value, &current->pipeline.max_rewrites) ||
          current->pipeline.max_rewrites == 0) {
        return LineError(line_number,
                         "\"max-rewrites\" must be a positive integer");
      }
    } else if (kv.key == "max-candidates") {
      if (!ParseSize(kv.value, &current->pipeline.max_candidates) ||
          current->pipeline.max_candidates == 0) {
        return LineError(line_number,
                         "\"max-candidates\" must be a positive integer");
      }
    } else if (kv.key == "min-score") {
      if (!ParseDouble(kv.value, &current->pipeline.min_score)) {
        return LineError(line_number, "\"min-score\" must be a number");
      }
    } else if (kv.key == "dedup") {
      if (!ParseOnOff(kv.value, &current->pipeline.apply_dedup)) {
        return LineError(line_number, "\"dedup\" must be \"on\" or \"off\"");
      }
    } else if (kv.key == "bid-filter") {
      if (!ParseOnOff(kv.value, &current->pipeline.apply_bid_filter)) {
        return LineError(line_number,
                         "\"bid-filter\" must be \"on\" or \"off\"");
      }
      current_bid_filter_set = true;
    } else {
      return LineError(line_number, "unknown key \"" + kv.key + "\"");
    }
  }

  if (manifest.version == 0) {
    return LineError(1, "manifest is empty: expected \"manifest-version " +
                            std::to_string(kManifestFormatVersion) + "\"");
  }
  if (current != nullptr) {
    SRPP_RETURN_NOT_OK(
        FinishEntry(current, current_bid_filter_set, current_started_at));
  }
  return manifest;
}

Result<ServingManifest> LoadManifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open manifest file: " + path);
  }
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  if (in.bad()) {
    return Status::IOError("read failure on manifest file: " + path);
  }
  std::string base_dir =
      std::filesystem::path(path).parent_path().string();
  return ParseManifest(content, base_dir);
}

std::string ManifestToString(const ServingManifest& manifest) {
  RewritePipelineOptions defaults;
  std::string out = StringPrintf("manifest-version %d\n", manifest.version);
  for (const ManifestEntry& entry : manifest.entries) {
    out += "\ntenant " + entry.tenant + "\n";
    out += "  graph " + entry.graph_path + "\n";
    if (!entry.snapshot_path.empty()) {
      out += "  snapshot " + entry.snapshot_path + "\n";
    }
    if (entry.on_demand) {
      out += "  scoring on-demand\n";
      // "linearized" is the parse-time default; only a deviation needs
      // stating for the round trip.
      if (entry.engine != "linearized") {
        out += "  engine " + entry.engine + "\n";
      }
    }
    if (!entry.bid_path.empty()) out += "  bids " + entry.bid_path + "\n";
    if (entry.expected_side.has_value()) {
      out += StringPrintf("  side %s\n",
                          SnapshotSideName(*entry.expected_side));
    }
    if (entry.expected_checksum.has_value()) {
      out += StringPrintf(
          "  checksum %016llx\n",
          static_cast<unsigned long long>(*entry.expected_checksum));
    }
    if (entry.pipeline.max_rewrites != defaults.max_rewrites) {
      out += StringPrintf("  max-rewrites %zu\n",
                          entry.pipeline.max_rewrites);
    }
    if (entry.pipeline.max_candidates != defaults.max_candidates) {
      out += StringPrintf("  max-candidates %zu\n",
                          entry.pipeline.max_candidates);
    }
    if (entry.pipeline.min_score != defaults.min_score) {
      // %.17g: enough digits that every double survives the round trip
      // (the canonical form's contract), even if less pretty than %g.
      out += StringPrintf("  min-score %.17g\n", entry.pipeline.min_score);
    }
    if (!entry.pipeline.apply_dedup) out += "  dedup off\n";
    // The parser's default for bid-filter depends on the bid file, so the
    // canonical form always states it explicitly when it differs.
    if (entry.pipeline.apply_bid_filter != !entry.bid_path.empty()) {
      out += StringPrintf("  bid-filter %s\n",
                          entry.pipeline.apply_bid_filter ? "on" : "off");
    }
  }
  return out;
}

Status WriteManifest(const ServingManifest& manifest,
                     const std::string& path) {
  std::string text = ManifestToString(manifest);
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IOError("cannot create manifest file: " + path);
  }
  size_t written = std::fwrite(text.data(), 1, text.size(), file);
  int close_rc = std::fclose(file);
  if (written != text.size() || close_rc != 0) {
    std::remove(path.c_str());
    return Status::IOError("write failure on manifest file: " + path);
  }
  return Status::OK();
}

}  // namespace simrankpp
