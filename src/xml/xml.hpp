// Minimal non-validating XML reader/writer.
//
// The paper's users submit workflows as XML configuration files ("hadoop dag
// /path/to/W_i.xml", Section III-B). We implement just enough XML for that
// artifact: elements, attributes, text content, comments, declarations, and
// the five predefined entities. No namespaces, DTDs, or CDATA-preserving
// round trips — workflow configs don't use them.
#pragma once

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace woha::xml {

/// Parse or structural error; carries a 1-based line number.
class XmlError : public std::runtime_error {
 public:
  XmlError(std::string message, std::size_t line)
      : std::runtime_error("XML error (line " + std::to_string(line) + "): " +
                           std::move(message)),
        line_(line) {}
  [[nodiscard]] std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

class Node {
 public:
  explicit Node(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  // --- attributes -----------------------------------------------------
  void set_attr(const std::string& key, std::string value);
  [[nodiscard]] bool has_attr(const std::string& key) const;
  /// Throws XmlError if missing.
  [[nodiscard]] const std::string& attr(const std::string& key) const;
  [[nodiscard]] std::string attr_or(const std::string& key,
                                    std::string fallback) const;

  // --- text content ---------------------------------------------------
  /// Concatenated character data directly inside this element (trimmed).
  [[nodiscard]] const std::string& text() const { return text_; }
  void set_text(std::string text) { text_ = std::move(text); }

  // --- children --------------------------------------------------------
  Node& add_child(std::string name);
  /// Take ownership of an already-built subtree (used by the parser).
  Node& adopt_child(std::unique_ptr<Node> child);
  [[nodiscard]] const std::vector<std::unique_ptr<Node>>& children() const {
    return children_;
  }
  /// All direct children with the given element name.
  [[nodiscard]] std::vector<const Node*> children_named(std::string_view name) const;
  /// First direct child with the name, or nullptr.
  [[nodiscard]] const Node* child(std::string_view name) const;
  /// First direct child with the name; throws XmlError if absent.
  [[nodiscard]] const Node& require_child(std::string_view name) const;
  /// Text of the named child, or fallback when the child is absent.
  [[nodiscard]] std::string child_text_or(std::string_view name,
                                          std::string fallback) const;

  /// Serialize this subtree with 2-space indentation.
  [[nodiscard]] std::string to_string(int indent = 0) const;

 private:
  std::string name_;
  std::map<std::string, std::string> attrs_;
  std::string text_;
  std::vector<std::unique_ptr<Node>> children_;
};

class Document {
 public:
  Document() : root_(std::make_unique<Node>("")) {}
  explicit Document(std::unique_ptr<Node> root) : root_(std::move(root)) {}

  [[nodiscard]] Node& root() { return *root_; }
  [[nodiscard]] const Node& root() const { return *root_; }

  /// Serialize with an XML declaration.
  [[nodiscard]] std::string to_string() const;

 private:
  std::unique_ptr<Node> root_;
};

/// Parse a complete document. Throws XmlError on malformed input, and on
/// elements nested more than 256 deep.
[[nodiscard]] Document parse(std::string_view input);

/// Parse a file from disk. Throws XmlError / std::runtime_error.
[[nodiscard]] Document parse_file(const std::string& path);

/// Escape &<>"' for attribute/text emission.
[[nodiscard]] std::string escape(std::string_view raw);

}  // namespace woha::xml
