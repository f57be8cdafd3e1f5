#include "src/analysis/output.h"

#include <sstream>
#include <string>

#include "src/analysis/finding.h"

namespace vlsipart::analysis {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string render_human(const AnalysisResult& result) {
  std::ostringstream out;
  for (const Finding& f : result.findings) {
    out << f.to_string() << "\n";
  }
  if (result.findings.empty()) {
    out << "vpart_lint: clean (" << result.files_scanned << " files";
  } else {
    out << "vpart_lint: " << result.findings.size() << " finding"
        << (result.findings.size() == 1 ? "" : "s") << " ("
        << result.files_scanned << " files";
  }
  if (result.suppressed != 0) {
    out << ", " << result.suppressed << " suppressed";
  }
  out << ")\n";
  return out.str();
}

std::string render_sarif(const AnalysisResult& result) {
  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": "
         "\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
         "Schemata/sarif-schema-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"vpart_lint\",\n"
      << "          \"informationUri\": "
         "\"https://example.invalid/vlsipart\",\n"
      << "          \"rules\": [";
  bool first = true;
  for (const RuleInfo& r : rule_catalog()) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "            {\"id\": \"" << r.id
        << "\", \"shortDescription\": {\"text\": \"" << json_escape(r.description)
        << "\"}, \"properties\": {\"family\": \"" << r.family << "\"}}";
  }
  out << "\n          ]\n"
      << "        }\n"
      << "      },\n"
      << "      \"results\": [";
  first = true;
  for (const Finding& f : result.findings) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "        {\"ruleId\": \"" << json_escape(f.rule)
        << "\", \"level\": \"error\", \"message\": {\"text\": \""
        << json_escape(f.message)
        << "\"}, \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \""
        << json_escape(f.path)
        << "\"}, \"region\": {\"startLine\": " << f.line
        << ", \"startColumn\": " << f.col << "}}}]}";
  }
  if (!first) out << "\n      ";
  out << "]\n"
      << "    }\n"
      << "  ]\n"
      << "}\n";
  return out.str();
}

}  // namespace vlsipart::analysis
