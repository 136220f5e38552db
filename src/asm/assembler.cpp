#include "asm/assembler.h"

#include <cctype>
#include <map>
#include <optional>
#include <vector>

#include "isa/table.h"

namespace zipr::assembler {

namespace {

using isa::BranchWidth;
using isa::Insn;

enum class Section { kText, kRodata, kData, kBss };

// symbol+addend expression; empty symbol means a plain constant.
struct Expr {
  std::string symbol;
  std::int64_t addend = 0;
  bool is_constant() const { return symbol.empty(); }
};

enum class StmtKind { kInsn, kData, kSpace, kAlign, kOrg };

struct Stmt {
  StmtKind kind = StmtKind::kInsn;
  int line = 0;
  Section section = Section::kText;
  std::uint64_t addr = 0;   // assigned in pass 1
  std::size_t size = 0;     // byte size, known at parse time (except org/align)

  // kInsn
  Insn insn;                  // template; imm filled in pass 2 where symbolic
  Expr target;                // branch target / absolute operand / immediate
  bool has_target = false;    // insn.imm comes from `target` in pass 2
  bool target_is_relative = false;  // value becomes value - (addr + size)

  // kData
  int width = 1;              // 1/2/4/8
  std::vector<Expr> values;
  std::string ascii;          // for .ascii/.asciz (already includes NUL if z)

  // kSpace
  std::uint8_t fill = 0;
  std::uint64_t count = 0;

  // kAlign / kOrg
  std::uint64_t arg = 0;
};

struct LineError {
  int line;
  std::string msg;
};

class Parser {
 public:
  Parser(std::string_view src, const Options& opts) : src_(src), opts_(opts) {}

  Result<zelf::Image> run() {
    auto st = pass1();
    if (!st.ok()) return st.error();
    return pass2();
  }

 private:
  std::string_view src_;
  const Options& opts_;

  std::vector<Stmt> stmts_;
  std::map<std::string, std::uint64_t> labels_;
  std::map<std::string, zelf::Symbol::Kind> symbol_kinds_;
  std::vector<std::string> symbol_order_;
  std::string entry_label_;
  bool library_ = false;
  std::vector<std::string> export_labels_;
  std::vector<std::pair<std::string, std::string>> imports_;  // (slot label, extern name)

  // per-section cursors (pass 1) and byte sinks (pass 2)
  std::uint64_t cursor_[4] = {};
  Bytes body_[4];

  Section cur_section_ = Section::kText;
  int line_no_ = 0;

  std::uint64_t section_base(Section s) const {
    switch (s) {
      case Section::kText: return opts_.text_base;
      case Section::kRodata: return opts_.rodata_base;
      case Section::kData: return opts_.data_base;
      case Section::kBss: return opts_.bss_base;
    }
    return 0;
  }

  Error err(const std::string& m) const {
    return Error::parse("line " + std::to_string(line_no_) + ": " + m);
  }

  // ---- lexical helpers ----

  static std::string_view trim(std::string_view s) {
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
    return s;
  }

  // Strip comments outside of string/char literals.
  static std::string_view strip_comment(std::string_view s) {
    bool in_str = false, in_chr = false;
    for (std::size_t i = 0; i < s.size(); ++i) {
      char c = s[i];
      if (in_str) {
        if (c == '"') in_str = false;
      } else if (in_chr) {
        if (c == '\'') in_chr = false;
      } else if (c == '"') {
        in_str = true;
      } else if (c == '\'') {
        in_chr = true;
      } else if (c == ';' || c == '#') {
        return s.substr(0, i);
      }
    }
    return s;
  }

  static bool is_ident_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' || c == '$';
  }

  // Split on commas respecting brackets and quotes.
  static std::vector<std::string_view> split_operands(std::string_view s) {
    std::vector<std::string_view> out;
    int depth = 0;
    bool in_str = false;
    std::size_t start = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
      char c = s[i];
      if (in_str) {
        if (c == '"') in_str = false;
      } else if (c == '"') {
        in_str = true;
      } else if (c == '[') {
        ++depth;
      } else if (c == ']') {
        --depth;
      } else if (c == ',' && depth == 0) {
        out.push_back(trim(s.substr(start, i - start)));
        start = i + 1;
      }
    }
    auto last = trim(s.substr(start));
    if (!last.empty() || !out.empty()) out.push_back(last);
    return out;
  }

  Result<std::uint8_t> parse_reg(std::string_view t) const {
    t = trim(t);
    if (t == "sp") return static_cast<std::uint8_t>(isa::kSpReg);
    if (t.size() >= 2 && t[0] == 'r' && std::isdigit(static_cast<unsigned char>(t[1]))) {
      int r = t[1] - '0';
      if (t.size() == 2 && r < isa::kNumRegs) return static_cast<std::uint8_t>(r);
    }
    return err("expected register, got '" + std::string(t) + "'");
  }

  static std::optional<std::int64_t> parse_int(std::string_view t) {
    t = trim(t);
    if (t.empty()) return std::nullopt;
    bool neg = false;
    if (t[0] == '-' || t[0] == '+') {
      neg = t[0] == '-';
      t.remove_prefix(1);
    }
    if (t.empty()) return std::nullopt;
    if (t.size() >= 3 && t[0] == '\'' && t.back() == '\'') {
      if (t.size() == 3) return neg ? -t[1] : t[1];
      if (t.size() == 4 && t[1] == '\\') {
        char c = t[2];
        std::int64_t v = c == 'n' ? '\n' : c == 't' ? '\t' : c == '0' ? '\0' : c == 'r' ? '\r' : c;
        return neg ? -v : v;
      }
      return std::nullopt;
    }
    // Accumulate unsigned: a 64-bit literal above INT64_MAX (a .quad bit
    // pattern) wraps to the same bits instead of overflowing.
    std::uint64_t v = 0;
    if (t.size() > 2 && t[0] == '0' && (t[1] == 'x' || t[1] == 'X')) {
      for (char c : t.substr(2)) {
        int d;
        if (c >= '0' && c <= '9') d = c - '0';
        else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
        else if (c >= 'A' && c <= 'F') d = c - 'A' + 10;
        else return std::nullopt;
        v = v * 16 + d;
      }
    } else {
      for (char c : t) {
        if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
        v = v * 10 + (c - '0');
      }
    }
    return static_cast<std::int64_t>(neg ? 0 - v : v);
  }

  // Parse `const` | `symbol` | `symbol+const` | `symbol-const`.
  Result<Expr> parse_expr(std::string_view t) const {
    t = trim(t);
    if (t.empty()) return err("empty expression");
    if (auto v = parse_int(t)) return Expr{"", *v};
    // symbol [±const]
    std::size_t i = 0;
    while (i < t.size() && is_ident_char(t[i])) ++i;
    if (i == 0) return err("bad expression '" + std::string(t) + "'");
    Expr e;
    e.symbol = std::string(t.substr(0, i));
    auto rest = trim(t.substr(i));
    if (!rest.empty()) {
      auto v = parse_int(rest);
      if (!v) return err("bad expression suffix '" + std::string(rest) + "'");
      e.addend = *v;
    }
    return e;
  }

  // Parse `[reg+disp]` / `[reg-disp]` / `[reg]`.
  Result<std::pair<std::uint8_t, std::int64_t>> parse_mem(std::string_view t) const {
    t = trim(t);
    if (t.size() < 3 || t.front() != '[' || t.back() != ']')
      return err("expected memory operand [reg+disp], got '" + std::string(t) + "'");
    auto inner = trim(t.substr(1, t.size() - 2));
    std::size_t i = 0;
    while (i < inner.size() && is_ident_char(inner[i])) ++i;
    ZIPR_ASSIGN_OR_RETURN(std::uint8_t r, parse_reg(inner.substr(0, i)));
    std::int64_t disp = 0;
    auto rest = trim(inner.substr(i));
    if (!rest.empty()) {
      auto v = parse_int(rest);
      if (!v) return err("bad displacement '" + std::string(rest) + "'");
      disp = *v;
    }
    return std::make_pair(r, disp);
  }

  // ---- pass 1: parse + layout ----

  Status pass1() {
    std::size_t pos = 0;
    while (pos <= src_.size()) {
      std::size_t nl = src_.find('\n', pos);
      std::string_view line =
          src_.substr(pos, nl == std::string_view::npos ? std::string_view::npos : nl - pos);
      pos = nl == std::string_view::npos ? src_.size() + 1 : nl + 1;
      ++line_no_;
      ZIPR_TRY(handle_line(line));
    }
    if (library_) {
      if (!entry_label_.empty())
        return Error::parse("a .library image cannot also have an .entry");
    } else {
      if (entry_label_.empty()) return Error::parse("missing .entry directive");
      if (!labels_.count(entry_label_))
        return Error::parse("entry label '" + entry_label_ + "' undefined");
    }
    return Status::success();
  }

  Status handle_line(std::string_view raw) {
    auto line = trim(strip_comment(raw));
    if (line.empty()) return Status::success();

    // Peel off any leading `label:` definitions.
    while (true) {
      std::size_t i = 0;
      while (i < line.size() && is_ident_char(line[i])) ++i;
      if (i > 0 && i < line.size() && line[i] == ':') {
        std::string name(line.substr(0, i));
        if (labels_.count(name)) return err("duplicate label '" + name + "'");
        labels_[name] = cur_addr();
        if (!symbol_kinds_.count(name)) {
          symbol_kinds_[name] = cur_section_ == Section::kText
                                    ? zelf::Symbol::Kind::kLabel
                                    : zelf::Symbol::Kind::kObject;
          symbol_order_.push_back(name);
        }
        line = trim(line.substr(i + 1));
        if (line.empty()) return Status::success();
        continue;
      }
      break;
    }

    if (line[0] == '.') return handle_directive(line);
    return handle_insn(line);
  }

  // Masked section index: the enum has exactly four values, but the mask
  // also proves it to the optimizer (silencing -Warray-bounds).
  static std::size_t idx(Section s) { return static_cast<std::size_t>(s) & 3; }

  std::uint64_t cur_addr() const {
    return section_base(cur_section_) + cursor_[idx(cur_section_)];
  }

  void advance(std::size_t n) { cursor_[idx(cur_section_)] += n; }

  Status push_stmt(Stmt s) {
    s.line = line_no_;
    s.section = cur_section_;
    s.addr = cur_addr();
    advance(s.size);
    if (cur_section_ == Section::kBss && s.kind != StmtKind::kSpace &&
        s.kind != StmtKind::kAlign && s.kind != StmtKind::kOrg)
      return err(".bss may contain only .space/.align/.org");
    stmts_.push_back(std::move(s));
    return Status::success();
  }

  Status handle_directive(std::string_view line) {
    std::size_t sp = line.find_first_of(" \t");
    std::string_view name = line.substr(0, sp);
    std::string_view rest = sp == std::string_view::npos ? "" : trim(line.substr(sp));

    if (name == ".text") { cur_section_ = Section::kText; return Status::success(); }
    if (name == ".rodata") { cur_section_ = Section::kRodata; return Status::success(); }
    if (name == ".data") { cur_section_ = Section::kData; return Status::success(); }
    if (name == ".bss") { cur_section_ = Section::kBss; return Status::success(); }

    if (name == ".entry") {
      if (rest.empty()) return err(".entry needs a label");
      entry_label_ = std::string(rest);
      return Status::success();
    }
    if (name == ".library") {
      library_ = true;
      return Status::success();
    }
    if (name == ".export") {
      if (rest.empty()) return err(".export needs a label");
      export_labels_.emplace_back(rest);
      return Status::success();
    }
    if (name == ".import") {
      // `.import slot_label, external_name`: defines an 8-byte GOT slot at
      // the current (writable-data) location.
      if (cur_section_ != Section::kData)
        return err(".import slots must live in .data");
      auto ops = split_operands(rest);
      if (ops.size() != 2) return err(".import needs <slot-label>, <name>");
      std::string slot(ops[0]);
      if (labels_.count(slot)) return err("duplicate label '" + slot + "'");
      labels_[slot] = cur_addr();
      imports_.emplace_back(slot, std::string(ops[1]));
      Stmt s;
      s.kind = StmtKind::kSpace;
      s.count = 8;
      s.size = 8;
      return push_stmt(std::move(s));
    }
    if (name == ".func" || name == ".object") {
      if (rest.empty()) return err(name[1] == 'f' ? ".func needs a name" : ".object needs a name");
      std::string label(rest);
      if (labels_.count(label)) return err("duplicate label '" + label + "'");
      labels_[label] = cur_addr();
      symbol_kinds_[label] =
          name == ".func" ? zelf::Symbol::Kind::kFunc : zelf::Symbol::Kind::kObject;
      symbol_order_.push_back(label);
      return Status::success();
    }

    if (name == ".byte" || name == ".word" || name == ".long" || name == ".quad") {
      Stmt s;
      s.kind = StmtKind::kData;
      s.width = name == ".byte" ? 1 : name == ".word" ? 2 : name == ".long" ? 4 : 8;
      for (auto op : split_operands(rest)) {
        ZIPR_ASSIGN_OR_RETURN(Expr e, parse_expr(op));
        s.values.push_back(std::move(e));
      }
      if (s.values.empty()) return err(std::string(name) + " needs values");
      s.size = s.values.size() * static_cast<std::size_t>(s.width);
      return push_stmt(std::move(s));
    }

    if (name == ".ascii" || name == ".asciz") {
      auto q1 = rest.find('"');
      auto q2 = rest.rfind('"');
      if (q1 == std::string_view::npos || q2 <= q1) return err("expected quoted string");
      Stmt s;
      s.kind = StmtKind::kData;
      s.width = 1;
      std::string text;
      auto body = rest.substr(q1 + 1, q2 - q1 - 1);
      for (std::size_t i = 0; i < body.size(); ++i) {
        char c = body[i];
        if (c == '\\' && i + 1 < body.size()) {
          char e = body[++i];
          c = e == 'n' ? '\n' : e == 't' ? '\t' : e == '0' ? '\0' : e == 'r' ? '\r' : e;
        }
        text.push_back(c);
      }
      if (name == ".asciz") text.push_back('\0');
      s.ascii = std::move(text);
      s.size = s.ascii.size();
      return push_stmt(std::move(s));
    }

    if (name == ".space") {
      auto ops = split_operands(rest);
      if (ops.empty()) return err(".space needs a size");
      auto n = parse_int(ops[0]);
      if (!n || *n < 0) return err("bad .space size");
      Stmt s;
      s.kind = StmtKind::kSpace;
      s.count = static_cast<std::uint64_t>(*n);
      s.size = static_cast<std::size_t>(*n);
      if (ops.size() > 1) {
        auto f = parse_int(ops[1]);
        if (!f) return err("bad .space fill");
        s.fill = static_cast<std::uint8_t>(*f);
      }
      return push_stmt(std::move(s));
    }

    if (name == ".align") {
      auto n = parse_int(rest);
      if (!n || *n <= 0 || (*n & (*n - 1)) != 0) return err("bad .align (need power of 2)");
      Stmt s;
      s.kind = StmtKind::kAlign;
      s.arg = static_cast<std::uint64_t>(*n);
      std::uint64_t a = cur_addr();
      std::uint64_t aligned = (a + s.arg - 1) & ~(s.arg - 1);
      s.size = static_cast<std::size_t>(aligned - a);
      return push_stmt(std::move(s));
    }

    if (name == ".org") {
      auto n = parse_int(rest);
      if (!n) return err("bad .org address");
      Stmt s;
      s.kind = StmtKind::kOrg;
      s.arg = static_cast<std::uint64_t>(*n);
      std::uint64_t a = cur_addr();
      if (s.arg < a) return err(".org cannot move backwards");
      s.size = static_cast<std::size_t>(s.arg - a);
      return push_stmt(std::move(s));
    }

    return err("unknown directive '" + std::string(name) + "'");
  }

  // ---- instruction parsing ----

  Status handle_insn(std::string_view line) {
    if (cur_section_ != Section::kText) return err("instructions only allowed in .text");
    std::size_t sp = line.find_first_of(" \t");
    std::string m(line.substr(0, sp));
    std::string_view rest = sp == std::string_view::npos ? "" : trim(line.substr(sp));
    auto ops = split_operands(rest);
    const isa::Spec* spec = isa::find_mnemonic(m);
    if (!spec) return err("unknown mnemonic '" + m + "'");

    Stmt s;
    s.kind = StmtKind::kInsn;
    Insn& in = s.insn;
    in.op = spec->op;
    in.cond = spec->cond;
    in.width = spec->width();
    auto need = [&](std::size_t n) -> Status {
      if (ops.size() != n)
        return err(m + " expects " + std::to_string(n) + " operand(s)");
      return Status::success();
    };
    // Operand `i` as an expression for pass 2; relative ones become
    // value - end-of-insn.
    auto target = [&](std::size_t i, bool relative) -> Status {
      ZIPR_ASSIGN_OR_RETURN(s.target, parse_expr(ops[i]));
      s.has_target = true;
      s.target_is_relative = relative;
      return Status::success();
    };

    switch (spec->form) {
      case isa::Form::kNone: case isa::Form::kSys:
        ZIPR_TRY(need(0));
        break;
      case isa::Form::kRegInOp: case isa::Form::kReg: {
        ZIPR_TRY(need(1));
        ZIPR_ASSIGN_OR_RETURN(in.ra, parse_reg(ops[0]));
        break;
      }
      case isa::Form::kRegReg: {
        ZIPR_TRY(need(2));
        ZIPR_ASSIGN_OR_RETURN(in.ra, parse_reg(ops[0]));
        ZIPR_ASSIGN_OR_RETURN(in.rb, parse_reg(ops[1]));
        break;
      }
      case isa::Form::kRel8: case isa::Form::kRel32:
        ZIPR_TRY(need(1));
        ZIPR_TRY(target(0, true));
        break;
      case isa::Form::kImm32:
        ZIPR_TRY(need(1));
        ZIPR_TRY(target(0, false));
        break;
      case isa::Form::kRegImm32: case isa::Form::kRegAbs32: case isa::Form::kRegImm64: {
        ZIPR_TRY(need(2));
        ZIPR_ASSIGN_OR_RETURN(in.ra, parse_reg(ops[0]));
        ZIPR_TRY(target(1, false));
        break;
      }
      case isa::Form::kPcRel: {
        // `lea r1, label` or `lea r1, [pc+8]`.
        ZIPR_TRY(need(2));
        ZIPR_ASSIGN_OR_RETURN(in.ra, parse_reg(ops[0]));
        auto t = trim(ops[1]);
        if (t.empty() || t.front() != '[') {
          ZIPR_TRY(target(1, true));
          break;
        }
        if (t.substr(0, 3) != "[pc") return err(m + " memory form must be [pc+disp]");
        auto inner = trim(t.substr(3, t.size() - 4));
        if (!inner.empty()) {
          auto v = parse_int(inner);
          if (!v) return err("bad pc displacement");
          in.imm = *v;
        }
        break;
      }
      case isa::Form::kLoad: {
        ZIPR_TRY(need(2));
        ZIPR_ASSIGN_OR_RETURN(in.ra, parse_reg(ops[0]));
        ZIPR_ASSIGN_OR_RETURN(auto mem, parse_mem(ops[1]));
        in.rb = mem.first;
        in.imm = mem.second;
        break;
      }
      case isa::Form::kStore: {
        ZIPR_TRY(need(2));
        ZIPR_ASSIGN_OR_RETURN(auto mem, parse_mem(ops[0]));
        in.ra = mem.first;
        in.imm = mem.second;
        ZIPR_ASSIGN_OR_RETURN(in.rb, parse_reg(ops[1]));
        break;
      }
    }
    s.size = spec->length;
    in.length = spec->length;
    return push_stmt(std::move(s));
  }

  // ---- pass 2: evaluation + encoding ----

  Result<std::int64_t> eval(const Expr& e, int line) const {
    if (e.is_constant()) return e.addend;
    auto it = labels_.find(e.symbol);
    if (it == labels_.end())
      return Error::parse("line " + std::to_string(line) + ": undefined symbol '" + e.symbol + "'");
    return static_cast<std::int64_t>(it->second) + e.addend;
  }

  Result<zelf::Image> pass2() {
    for (auto& s : stmts_) {
      Bytes& out = body_[idx(s.section)];
      line_no_ = s.line;
      std::size_t before = out.size();

      switch (s.kind) {
        case StmtKind::kData: {
          if (!s.ascii.empty() || (s.values.empty() && s.width == 1)) {
            for (char c : s.ascii) out.push_back(static_cast<Byte>(c));
            break;
          }
          for (const auto& v : s.values) {
            ZIPR_ASSIGN_OR_RETURN(std::int64_t val, eval(v, s.line));
            switch (s.width) {
              case 1: put_u8(out, static_cast<std::uint8_t>(val)); break;
              case 2: put_u16(out, static_cast<std::uint16_t>(val)); break;
              case 4: put_u32(out, static_cast<std::uint32_t>(val)); break;
              case 8: put_u64(out, static_cast<std::uint64_t>(val)); break;
            }
          }
          break;
        }
        case StmtKind::kSpace:
          out.insert(out.end(), s.count, s.fill);
          break;
        case StmtKind::kAlign:
        case StmtKind::kOrg: {
          Byte fill = s.section == Section::kText ? isa::opc::kNop : Byte{0};
          out.insert(out.end(), s.size, fill);
          break;
        }
        case StmtKind::kInsn: {
          Insn in = s.insn;
          if (s.has_target) {
            ZIPR_ASSIGN_OR_RETURN(std::int64_t val, eval(s.target, s.line));
            if (s.target_is_relative) {
              in.imm = val - static_cast<std::int64_t>(s.addr + s.size);
              if (in.width == BranchWidth::kRel8 &&
                  (in.imm < isa::kRel8Min || in.imm > isa::kRel8Max))
                return err("rel8 branch target out of range (" + std::to_string(in.imm) + ")");
            } else {
              in.imm = val;
            }
          }
          auto st = encode(in, out);
          if (!st.ok()) return err(st.error().message);
          break;
        }
      }
      if (s.section != Section::kBss && out.size() - before != s.size)
        return Error::internal("line " + std::to_string(s.line) + ": size mismatch pass1=" +
                               std::to_string(s.size) + " pass2=" +
                               std::to_string(out.size() - before));
      // bss keeps no bytes; roll back any fill emitted above.
      if (s.section == Section::kBss) out.clear();
    }

    zelf::Image img;
    auto add_segment = [&](Section sec, zelf::SegKind kind) {
      std::uint64_t used = cursor_[idx(sec)];
      if (used == 0) return;
      zelf::Segment seg;
      seg.kind = kind;
      seg.vaddr = section_base(sec);
      seg.memsize = used;
      if (kind != zelf::SegKind::kBss) seg.bytes = std::move(body_[idx(sec)]);
      img.segments.push_back(std::move(seg));
    };
    add_segment(Section::kText, zelf::SegKind::kText);
    add_segment(Section::kRodata, zelf::SegKind::kRodata);
    add_segment(Section::kData, zelf::SegKind::kData);
    add_segment(Section::kBss, zelf::SegKind::kBss);

    img.library = library_;
    img.entry = library_ ? 0 : labels_.at(entry_label_);
    for (const auto& label : export_labels_) {
      auto it = labels_.find(label);
      if (it == labels_.end())
        return Error::parse("exported label '" + label + "' undefined");
      img.exports.push_back({label, it->second});
    }
    for (const auto& [slot, name] : imports_) {
      img.imports.push_back({name, labels_.at(slot)});
    }
    if (opts_.emit_symbols) {
      for (const auto& name : symbol_order_) {
        zelf::Symbol sym;
        sym.kind = symbol_kinds_.at(name);
        sym.addr = labels_.at(name);
        sym.name = name;
        img.symbols.push_back(std::move(sym));
      }
    }
    ZIPR_TRY(img.validate());
    return img;
  }
};

}  // namespace

Result<zelf::Image> assemble(std::string_view source, const Options& opts) {
  Parser p(source, opts);
  return p.run();
}

}  // namespace zipr::assembler
