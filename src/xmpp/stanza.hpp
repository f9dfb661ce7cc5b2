// Minimal XML/XMPP stanza model and incremental stream parser.
//
// Implements the core framing of RFC 6120 needed by the messaging service:
// stream open/close plus complete top-level stanzas (<message/>,
// <presence/>, <iq/>, <auth/>, ...). The parser is incremental: feed() it
// raw TCP bytes, then drain events — partial stanzas stay buffered.
// Supported XML subset: elements, attributes (single/double quoted), text,
// self-closing tags, and the five predefined entities.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ea::xmpp {

struct XmlNode {
  std::string name;
  std::vector<std::pair<std::string, std::string>> attrs;
  std::string text;  // concatenated character data directly inside this node
  std::vector<XmlNode> children;

  // First attribute value by name, nullptr when absent.
  const std::string* attr(std::string_view key) const;

  // First child element by name, nullptr when absent.
  const XmlNode* child(std::string_view key) const;

  void set_attr(std::string key, std::string value);

  // Serialises to XML (escaping attribute values and text).
  std::string serialize() const;
};

// Escapes &, <, >, ', " for inclusion in XML.
std::string xml_escape(std::string_view raw);
std::string xml_unescape(std::string_view xml);

// Deepest element nesting the parser accepts; this service's deepest
// stanza, message › body, has 2 levels. The parser recurses once per
// level on client bytes, inside an enclave whose threads have small stacks
// (the SGX SDK's default is 256 KiB), so deeper input is malformed.
inline constexpr int kMaxNesting = 16;

// Parses one complete element starting at text[pos] (which must be '<') at
// nesting level `depth` (a stanza is level 1). Advances pos past the
// element. Returns nullopt on malformed or incomplete input (pos is then
// unspecified); past kMaxNesting, pos is set to npos, as no further bytes
// can make the input parse.
std::optional<XmlNode> parse_element(std::string_view text, std::size_t& pos,
                                     int depth = 1);

// Incremental stream parser.
class StanzaStream {
 public:
  enum class EventType { kStreamOpen, kStanza, kStreamClose };

  struct Event {
    EventType type;
    XmlNode node;  // stream-open attributes or the stanza itself
  };

  // Appends raw bytes from the transport.
  void feed(std::string_view bytes);

  // Returns the next complete event, or nullopt if more bytes are needed.
  std::optional<Event> next();

  // True once malformed XML has been encountered, an element nested past
  // kMaxNesting included; the connection should be dropped.
  bool failed() const noexcept { return failed_; }

  // Migration snapshot/restore (DESIGN.md §17): the incremental parse state
  // is exactly the byte buffer plus the stream-open flag, so a mid-stanza
  // connection survives an actor migration byte-for-byte.
  const std::string& buffer() const noexcept { return buffer_; }
  bool in_stream() const noexcept { return in_stream_; }
  void restore(std::string buffer, bool in_stream) {
    buffer_ = std::move(buffer);
    in_stream_ = in_stream;
    failed_ = false;
  }

 private:
  std::string buffer_;
  bool in_stream_ = false;
  bool failed_ = false;
};

// --- stanza builders used by both servers and the client -------------------

std::string make_stream_open(std::string_view to);
std::string make_stream_close();
std::string make_auth(std::string_view jid);
std::string make_auth_success();
std::string make_chat_message(std::string_view from, std::string_view to,
                              std::string_view body);
std::string make_groupchat_message(std::string_view from, std::string_view to,
                                   std::string_view body);
std::string make_presence_join(std::string_view from, std::string_view room);
std::string make_error(std::string_view reason);

}  // namespace ea::xmpp
