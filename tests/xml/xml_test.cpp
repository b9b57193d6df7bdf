#include "xml/xml.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

namespace woha::xml {
namespace {

TEST(Xml, ParsesElementsAttributesText) {
  const auto doc = parse(R"(<?xml version="1.0"?>
    <workflow name="w1" deadline="80min">
      <job name="a" maps="3">hello</job>
      <job name="b"/>
    </workflow>)");
  const Node& root = doc.root();
  EXPECT_EQ(root.name(), "workflow");
  EXPECT_EQ(root.attr("name"), "w1");
  EXPECT_EQ(root.attr("deadline"), "80min");
  ASSERT_EQ(root.children().size(), 2u);
  EXPECT_EQ(root.children()[0]->attr("name"), "a");
  EXPECT_EQ(root.children()[0]->text(), "hello");
  EXPECT_EQ(root.children()[1]->attr("name"), "b");
}

TEST(Xml, SelfClosingTag) {
  const auto doc = parse("<a><b/><b x='1'/></a>");
  EXPECT_EQ(doc.root().children_named("b").size(), 2u);
  EXPECT_EQ(doc.root().children_named("b")[1]->attr("x"), "1");
}

TEST(Xml, DecodesEntities) {
  const auto doc = parse("<a t=\"&lt;x&gt; &amp; &quot;y&quot;\">&apos;&#65;&#x42;</a>");
  EXPECT_EQ(doc.root().attr("t"), "<x> & \"y\"");
  EXPECT_EQ(doc.root().text(), "'AB");
}

TEST(Xml, SkipsComments) {
  const auto doc = parse("<!-- head --><a><!-- inner -->v<!-- tail --></a><!-- end -->");
  EXPECT_EQ(doc.root().text(), "v");
  EXPECT_TRUE(doc.root().children().empty());
}

TEST(Xml, TrimsElementText) {
  const auto doc = parse("<a>\n   spaced out   \n</a>");
  EXPECT_EQ(doc.root().text(), "spaced out");
}

TEST(Xml, NestedStructure) {
  const auto doc = parse("<a><b><c deep='yes'/></b></a>");
  const Node* b = doc.root().child("b");
  ASSERT_NE(b, nullptr);
  const Node* c = b->child("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->attr("deep"), "yes");
}

TEST(Xml, MismatchedCloseTagThrows) {
  EXPECT_THROW((void)parse("<a><b></a></b>"), XmlError);
}

TEST(Xml, TruncatedInputThrows) {
  EXPECT_THROW((void)parse("<a><b>"), XmlError);
  EXPECT_THROW((void)parse("<a attr='v"), XmlError);
}

TEST(Xml, TrailingContentThrows) {
  EXPECT_THROW((void)parse("<a/><b/>"), XmlError);
}

TEST(Xml, UnknownEntityThrows) {
  EXPECT_THROW((void)parse("<a>&bogus;</a>"), XmlError);
}

TEST(Xml, UnquotedAttributeThrows) {
  EXPECT_THROW((void)parse("<a x=1/>"), XmlError);
}

// `depth` elements, each nested in the one before.
std::string nested(std::size_t depth) {
  std::string doc;
  for (std::size_t i = 0; i < depth; ++i) doc += "<a>";
  for (std::size_t i = 0; i < depth; ++i) doc += "</a>";
  return doc;
}

// The parser recurses once per nesting level: a 100,000-deep document ran
// off the end of the stack. Past the bound it is refused instead.
TEST(Xml, RefusesNestingDeeperThanTheBound) {
  EXPECT_NO_THROW((void)parse(nested(256)));
  EXPECT_THROW((void)parse(nested(257)), XmlError);
  EXPECT_THROW((void)parse(nested(200'000)), XmlError);
}

TEST(Xml, ErrorsCarryLineNumbers) {
  try {
    (void)parse("<a>\n<b>\n</wrong>\n</a>");
    FAIL() << "expected XmlError";
  } catch (const XmlError& e) {
    EXPECT_EQ(e.line(), 3u);
  }
}

TEST(Xml, RequireChildAndFallbacks) {
  const auto doc = parse("<a><b>x</b></a>");
  EXPECT_EQ(doc.root().require_child("b").text(), "x");
  EXPECT_THROW((void)doc.root().require_child("missing"), XmlError);
  EXPECT_EQ(doc.root().child_text_or("b", "d"), "x");
  EXPECT_EQ(doc.root().child_text_or("nope", "d"), "d");
  EXPECT_EQ(doc.root().attr_or("missing", "fb"), "fb");
  EXPECT_THROW((void)doc.root().attr("missing"), XmlError);
}

TEST(Xml, EscapeCoversSpecials) {
  EXPECT_EQ(escape("a<b>&\"'"), "a&lt;b&gt;&amp;&quot;&apos;");
  EXPECT_EQ(escape("plain"), "plain");
}

TEST(Xml, SerializeParseRoundTrip) {
  auto root = std::make_unique<Node>("workflow");
  root->set_attr("name", "round<trip>");
  Node& job = root->add_child("job");
  job.set_attr("name", "j&1");
  job.set_text("some \"text\"");
  root->add_child("empty");
  const Document original(std::move(root));

  const auto reparsed = parse(original.to_string());
  EXPECT_EQ(reparsed.root().attr("name"), "round<trip>");
  EXPECT_EQ(reparsed.root().child("job")->attr("name"), "j&1");
  EXPECT_EQ(reparsed.root().child("job")->text(), "some \"text\"");
  EXPECT_NE(reparsed.root().child("empty"), nullptr);
}

TEST(Xml, ToleratesDoctypeAndDeclaration) {
  const auto doc = parse(
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      "<!DOCTYPE workflow>\n"
      "<workflow/>");
  EXPECT_EQ(doc.root().name(), "workflow");
}

}  // namespace
}  // namespace woha::xml
