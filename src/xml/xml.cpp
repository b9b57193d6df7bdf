#include "xml/xml.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/strings.hpp"

namespace woha::xml {

void Node::set_attr(const std::string& key, std::string value) {
  attrs_[key] = std::move(value);
}

bool Node::has_attr(const std::string& key) const { return attrs_.count(key) > 0; }

const std::string& Node::attr(const std::string& key) const {
  const auto it = attrs_.find(key);
  if (it == attrs_.end()) {
    throw XmlError("element <" + name_ + "> missing attribute '" + key + "'", 0);
  }
  return it->second;
}

std::string Node::attr_or(const std::string& key, std::string fallback) const {
  const auto it = attrs_.find(key);
  return it == attrs_.end() ? std::move(fallback) : it->second;
}

Node& Node::add_child(std::string name) {
  children_.push_back(std::make_unique<Node>(std::move(name)));
  return *children_.back();
}

Node& Node::adopt_child(std::unique_ptr<Node> child) {
  children_.push_back(std::move(child));
  return *children_.back();
}

std::vector<const Node*> Node::children_named(std::string_view name) const {
  std::vector<const Node*> out;
  for (const auto& c : children_) {
    if (c->name() == name) out.push_back(c.get());
  }
  return out;
}

const Node* Node::child(std::string_view name) const {
  for (const auto& c : children_) {
    if (c->name() == name) return c.get();
  }
  return nullptr;
}

const Node& Node::require_child(std::string_view name) const {
  const Node* c = child(name);
  if (!c) throw XmlError("element <" + name_ + "> missing child <" + std::string(name) + ">", 0);
  return *c;
}

std::string Node::child_text_or(std::string_view name, std::string fallback) const {
  const Node* c = child(name);
  return c ? c->text() : std::move(fallback);
}

std::string escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char ch : raw) {
    switch (ch) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out += ch;
    }
  }
  return out;
}

std::string Node::to_string(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  std::string out = pad + "<" + name_;
  for (const auto& [k, v] : attrs_) out += " " + k + "=\"" + escape(v) + "\"";
  if (children_.empty() && text_.empty()) return out + "/>\n";
  out += ">";
  if (!text_.empty()) out += escape(text_);
  if (!children_.empty()) {
    out += "\n";
    for (const auto& c : children_) out += c->to_string(indent + 1);
    out += pad;
  }
  return out + "</" + name_ + ">\n";
}

std::string Document::to_string() const {
  return "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n" + root_->to_string();
}

namespace {

/// Single-pass recursive-descent parser over the input buffer.
class Parser {
 public:
  explicit Parser(std::string_view input) : in_(input) {}

  Document parse_document() {
    skip_prolog();
    auto root = parse_element();
    skip_misc();
    if (pos_ != in_.size()) fail("trailing content after document element");
    return Document(std::move(root));
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const { throw XmlError(msg, line_); }

  [[nodiscard]] bool eof() const { return pos_ >= in_.size(); }
  [[nodiscard]] char peek() const { return eof() ? '\0' : in_[pos_]; }

  char get() {
    if (eof()) fail("unexpected end of input");
    const char c = in_[pos_++];
    if (c == '\n') ++line_;
    return c;
  }

  bool consume(std::string_view token) {
    if (in_.substr(pos_).substr(0, token.size()) != token) return false;
    for (std::size_t i = 0; i < token.size(); ++i) get();
    return true;
  }

  void expect(std::string_view token) {
    if (!consume(token)) fail("expected '" + std::string(token) + "'");
  }

  void skip_ws() {
    while (!eof() && std::isspace(static_cast<unsigned char>(peek()))) get();
  }

  void skip_comment() {
    // Positioned just after "<!--".
    while (!consume("-->")) get();
  }

  void skip_misc() {
    for (;;) {
      skip_ws();
      if (consume("<!--")) {
        skip_comment();
      } else {
        return;
      }
    }
  }

  void skip_prolog() {
    skip_ws();
    if (consume("<?xml")) {
      while (!consume("?>")) get();
    }
    skip_misc();
    // Tolerate (and ignore) a DOCTYPE without internal subset.
    if (consume("<!DOCTYPE")) {
      while (peek() != '>') get();
      get();
    }
    skip_misc();
  }

  [[nodiscard]] static bool is_name_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
           c == '.' || c == ':';
  }

  std::string parse_name() {
    std::string name;
    while (!eof() && is_name_char(peek())) name += get();
    if (name.empty()) fail("expected a name");
    return name;
  }

  std::string decode_entity() {
    // Positioned just after '&'.
    std::string ent;
    while (peek() != ';') {
      ent += get();
      if (ent.size() > 8) fail("unterminated entity reference");
    }
    get();  // ';'
    if (ent == "amp") return "&";
    if (ent == "lt") return "<";
    if (ent == "gt") return ">";
    if (ent == "quot") return "\"";
    if (ent == "apos") return "'";
    if (!ent.empty() && ent[0] == '#') {
      const bool hex = ent.size() > 1 && (ent[1] == 'x' || ent[1] == 'X');
      const long code = std::strtol(ent.c_str() + (hex ? 2 : 1), nullptr, hex ? 16 : 10);
      if (code <= 0 || code > 127) fail("only ASCII character references supported");
      return std::string(1, static_cast<char>(code));
    }
    fail("unknown entity '&" + ent + ";'");
  }

  std::string parse_attr_value() {
    const char quote = get();
    if (quote != '"' && quote != '\'') fail("attribute value must be quoted");
    std::string value;
    for (;;) {
      const char c = get();
      if (c == quote) break;
      if (c == '&') {
        value += decode_entity();
      } else {
        value += c;
      }
    }
    return value;
  }

  /// Deepest element nesting accepted. Each level is one recursion here, so
  /// the bound keeps hostile input from running off the end of the stack;
  /// workflow configs nest three deep.
  static constexpr std::size_t kMaxDepth = 256;

  std::unique_ptr<Node> parse_element(std::size_t depth = 1) {
    if (depth > kMaxDepth) {
      fail("elements nest deeper than " + std::to_string(kMaxDepth) + " levels");
    }
    expect("<");
    auto node = std::make_unique<Node>(parse_name());
    // Attributes.
    for (;;) {
      skip_ws();
      if (consume("/>")) return node;
      if (consume(">")) break;
      const std::string key = parse_name();
      skip_ws();
      expect("=");
      skip_ws();
      node->set_attr(key, parse_attr_value());
    }
    // Content: interleaved text, comments, and child elements.
    std::string text;
    for (;;) {
      if (consume("<!--")) {
        skip_comment();
      } else if (in_.substr(pos_).substr(0, 2) == "</") {
        expect("</");
        const std::string close = parse_name();
        if (close != node->name()) {
          fail("mismatched close tag </" + close + "> for <" + node->name() + ">");
        }
        skip_ws();
        expect(">");
        node->set_text(std::string(trim(text)));
        return node;
      } else if (peek() == '<') {
        node->adopt_child(parse_element(depth + 1));
      } else {
        const char c = get();
        if (c == '&') {
          text += decode_entity();
        } else {
          text += c;
        }
      }
    }
  }

  std::string_view in_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
};

}  // namespace

Document parse(std::string_view input) {
  Parser p(input);
  return p.parse_document();
}

Document parse_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open XML file: " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return parse(buf.str());
}

}  // namespace woha::xml
