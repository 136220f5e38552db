#include "irdb/serialize.h"

#include <charconv>
#include <sstream>

namespace zipr::irdb {

namespace {

constexpr const char* kHeader = "zipr-irdb 1";

std::string hex_bytes(ByteView b) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(b.size() * 2);
  for (Byte v : b) {
    out.push_back(digits[v >> 4]);
    out.push_back(digits[v & 0xf]);
  }
  return out;
}

Result<Bytes> parse_hex(std::string_view s) {
  if (s.size() % 2) return Error::parse("odd hex length");
  Bytes out;
  out.reserve(s.size() / 2);
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  for (std::size_t i = 0; i < s.size(); i += 2) {
    int hi = nibble(s[i]), lo = nibble(s[i + 1]);
    if (hi < 0 || lo < 0) return Error::parse("bad hex digit");
    out.push_back(static_cast<Byte>((hi << 4) | lo));
  }
  return out;
}

Result<std::uint64_t> parse_u64(std::string_view s) {
  std::uint64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size())
    return Error::parse("bad number '" + std::string(s) + "'");
  return v;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      if (i > start) out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

}  // namespace

std::string serialize(const Database& db) {
  std::ostringstream out;
  out << kHeader << "\n";

  db.for_each_insn([&](const auto& row) {
    // Encoded bytes carry the semantics; verbatim rows keep raw bytes.
    ByteView raw = row.orig_bytes;
    Bytes bytes = row.verbatim ? Bytes(raw.begin(), raw.end())
                               : isa::encode(row.decoded).value_or(Bytes{});
    out << "insn " << row.id << " bytes=" << hex_bytes(bytes);
    if (row.orig_addr) out << " orig=" << *row.orig_addr;
    if (row.fallthrough != kNullInsn) out << " ft=" << row.fallthrough;
    if (row.target != kNullInsn) out << " tgt=" << row.target;
    if (row.abs_target) out << " abs=" << *row.abs_target;
    if (row.data_ref) out << " data=" << *row.data_ref;
    if (row.function != kNullFunc) out << " func=" << row.function;
    if (row.verbatim) out << " verbatim";
    out << "\n";
  });

  for (const auto& [addr, id] : db.pins()) out << "pin " << addr << " " << id << "\n";

  db.for_each_function([&](const Function& f) {
    out << "func " << f.id << " entry=" << f.entry << " name=" << f.name << " members=";
    for (std::size_t i = 0; i < f.members.size(); ++i) {
      if (i) out << ",";
      out << f.members[i];
    }
    out << "\n";
  });
  return out.str();
}

Result<Database> deserialize(std::string_view text) {
  Database db;
  std::size_t pos = 0;
  int line_no = 0;
  bool saw_header = false;

  auto err = [&](const std::string& m) {
    return Error::parse("irdb line " + std::to_string(line_no) + ": " + m);
  };

  while (pos <= text.size()) {
    std::size_t nl = text.find('\n', pos);
    std::string_view line =
        text.substr(pos, nl == std::string_view::npos ? std::string_view::npos : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    if (line.empty()) continue;

    if (!saw_header) {
      if (line != kHeader) return err("missing header");
      saw_header = true;
      continue;
    }

    auto fields = split(line, ' ');
    if (fields.empty()) continue;

    if (fields[0] == "insn") {
      if (fields.size() < 3) return err("truncated insn row");
      ZIPR_ASSIGN_OR_RETURN(std::uint64_t id, parse_u64(fields[1]));
      Instruction row;
      bool have_bytes = false;
      for (std::size_t i = 2; i < fields.size(); ++i) {
        std::string_view f = fields[i];
        if (f == "verbatim") {
          row.verbatim = true;
        } else if (f.substr(0, 6) == "bytes=") {
          ZIPR_ASSIGN_OR_RETURN(row.orig_bytes, parse_hex(f.substr(6)));
          have_bytes = true;
        } else if (f.substr(0, 5) == "orig=") {
          ZIPR_ASSIGN_OR_RETURN(std::uint64_t v, parse_u64(f.substr(5)));
          row.orig_addr = v;
        } else if (f.substr(0, 3) == "ft=") {
          ZIPR_ASSIGN_OR_RETURN(std::uint64_t v, parse_u64(f.substr(3)));
          row.fallthrough = static_cast<InsnId>(v);
        } else if (f.substr(0, 4) == "tgt=") {
          ZIPR_ASSIGN_OR_RETURN(std::uint64_t v, parse_u64(f.substr(4)));
          row.target = static_cast<InsnId>(v);
        } else if (f.substr(0, 4) == "abs=") {
          ZIPR_ASSIGN_OR_RETURN(std::uint64_t v, parse_u64(f.substr(4)));
          row.abs_target = v;
        } else if (f.substr(0, 5) == "data=") {
          ZIPR_ASSIGN_OR_RETURN(std::uint64_t v, parse_u64(f.substr(5)));
          row.data_ref = v;
        } else if (f.substr(0, 5) == "func=") {
          ZIPR_ASSIGN_OR_RETURN(std::uint64_t v, parse_u64(f.substr(5)));
          row.function = static_cast<FuncId>(v);
        } else {
          return err("unknown field '" + std::string(f) + "'");
        }
      }
      if (!have_bytes) return err("insn row has no bytes");
      if (!row.verbatim) {
        auto decoded = isa::decode(row.orig_bytes);
        if (!decoded.ok()) return err("undecodable insn bytes: " + decoded.error().message);
        row.decoded = *decoded;
        if (!row.orig_addr) row.orig_bytes.clear();  // transform-created row
      }
      InsnId got = db.add_instruction(std::move(row));
      if (got != id) return err("non-sequential instruction id");
      continue;
    }

    if (fields[0] == "pin") {
      if (fields.size() != 3) return err("pin needs <addr> <id>");
      ZIPR_ASSIGN_OR_RETURN(std::uint64_t addr, parse_u64(fields[1]));
      ZIPR_ASSIGN_OR_RETURN(std::uint64_t id, parse_u64(fields[2]));
      ZIPR_TRY(db.pin(addr, static_cast<InsnId>(id)));
      continue;
    }

    if (fields[0] == "func") {
      if (fields.size() < 4) return err("truncated func row");
      ZIPR_ASSIGN_OR_RETURN(std::uint64_t id, parse_u64(fields[1]));
      Function f;
      for (std::size_t i = 2; i < fields.size(); ++i) {
        std::string_view field = fields[i];
        if (field.substr(0, 6) == "entry=") {
          ZIPR_ASSIGN_OR_RETURN(std::uint64_t v, parse_u64(field.substr(6)));
          f.entry = static_cast<InsnId>(v);
        } else if (field.substr(0, 5) == "name=") {
          f.name = std::string(field.substr(5));
        } else if (field.substr(0, 8) == "members=") {
          for (auto m : split(field.substr(8), ',')) {
            ZIPR_ASSIGN_OR_RETURN(std::uint64_t v, parse_u64(m));
            f.members.push_back(static_cast<InsnId>(v));
          }
        } else {
          return err("unknown field '" + std::string(field) + "'");
        }
      }
      FuncId got = db.add_function(std::move(f));
      if (got != id) return err("non-sequential function id");
      continue;
    }

    return err("unknown record '" + std::string(fields[0]) + "'");
  }

  if (!saw_header) return Error::parse("empty irdb dump");
  ZIPR_TRY(db.validate());
  return db;
}

}  // namespace zipr::irdb
