#include "xmpp/stanza.hpp"

#include <cctype>

namespace ea::xmpp {
namespace {

bool is_name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == ':' || c == '-' ||
         c == '_' || c == '.';
}

void skip_ws(std::string_view text, std::size_t& pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos]))) {
    ++pos;
  }
}

std::optional<std::string> parse_name(std::string_view text,
                                      std::size_t& pos) {
  std::size_t start = pos;
  while (pos < text.size() && is_name_char(text[pos])) ++pos;
  if (pos == start) return std::nullopt;
  return std::string(text.substr(start, pos - start));
}

// Parses attributes up to (but not consuming) '>' or '/>'.
bool parse_attrs(std::string_view text, std::size_t& pos, XmlNode& node) {
  while (true) {
    skip_ws(text, pos);
    if (pos >= text.size()) return false;
    if (text[pos] == '>' || text[pos] == '/' || text[pos] == '?') return true;
    auto key = parse_name(text, pos);
    if (!key.has_value()) return false;
    skip_ws(text, pos);
    if (pos >= text.size() || text[pos] != '=') return false;
    ++pos;
    skip_ws(text, pos);
    if (pos >= text.size() || (text[pos] != '"' && text[pos] != '\'')) {
      return false;
    }
    char quote = text[pos++];
    std::size_t start = pos;
    while (pos < text.size() && text[pos] != quote) ++pos;
    if (pos >= text.size()) return false;
    node.attrs.emplace_back(*key,
                            xml_unescape(text.substr(start, pos - start)));
    ++pos;
  }
}

}  // namespace

const std::string* XmlNode::attr(std::string_view key) const {
  for (const auto& [k, v] : attrs) {
    if (k == key) return &v;
  }
  return nullptr;
}

const XmlNode* XmlNode::child(std::string_view key) const {
  for (const XmlNode& c : children) {
    if (c.name == key) return &c;
  }
  return nullptr;
}

void XmlNode::set_attr(std::string key, std::string value) {
  for (auto& [k, v] : attrs) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  attrs.emplace_back(std::move(key), std::move(value));
}

std::string xml_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string xml_unescape(std::string_view xml) {
  std::string out;
  out.reserve(xml.size());
  for (std::size_t i = 0; i < xml.size(); ++i) {
    if (xml[i] != '&') {
      out.push_back(xml[i]);
      continue;
    }
    auto rest = xml.substr(i);
    if (rest.rfind("&amp;", 0) == 0) {
      out.push_back('&');
      i += 4;
    } else if (rest.rfind("&lt;", 0) == 0) {
      out.push_back('<');
      i += 3;
    } else if (rest.rfind("&gt;", 0) == 0) {
      out.push_back('>');
      i += 3;
    } else if (rest.rfind("&quot;", 0) == 0) {
      out.push_back('"');
      i += 5;
    } else if (rest.rfind("&apos;", 0) == 0) {
      out.push_back('\'');
      i += 5;
    } else {
      out.push_back('&');
    }
  }
  return out;
}

std::string XmlNode::serialize() const {
  std::string out = "<" + name;
  for (const auto& [k, v] : attrs) {
    out += " " + k + "='" + xml_escape(v) + "'";
  }
  if (text.empty() && children.empty()) {
    out += "/>";
    return out;
  }
  out += ">";
  out += xml_escape(text);
  for (const XmlNode& c : children) out += c.serialize();
  out += "</" + name + ">";
  return out;
}

std::optional<XmlNode> parse_element(std::string_view text, std::size_t& pos,
                                     int depth) {
  if (depth > kMaxNesting) pos = std::string_view::npos;  // fails below
  if (pos >= text.size() || text[pos] != '<') return std::nullopt;
  ++pos;
  XmlNode node;
  auto name = parse_name(text, pos);
  if (!name.has_value()) return std::nullopt;
  node.name = *name;
  if (!parse_attrs(text, pos, node)) return std::nullopt;
  if (pos >= text.size()) return std::nullopt;
  if (text[pos] == '/') {
    ++pos;
    if (pos >= text.size() || text[pos] != '>') return std::nullopt;
    ++pos;
    return node;
  }
  if (text[pos] != '>') return std::nullopt;
  ++pos;

  // Children and text until the matching close tag.
  while (true) {
    std::size_t start = pos;
    while (pos < text.size() && text[pos] != '<') ++pos;
    if (pos > start) {
      node.text += xml_unescape(text.substr(start, pos - start));
    }
    if (pos + 1 >= text.size()) return std::nullopt;
    if (text[pos + 1] == '/') {
      pos += 2;
      auto close = parse_name(text, pos);
      if (!close.has_value() || *close != node.name) return std::nullopt;
      skip_ws(text, pos);
      if (pos >= text.size() || text[pos] != '>') return std::nullopt;
      ++pos;
      return node;
    }
    auto child = parse_element(text, pos, depth + 1);
    if (!child.has_value()) return std::nullopt;
    node.children.push_back(std::move(*child));
  }
}

void StanzaStream::feed(std::string_view bytes) { buffer_.append(bytes); }

std::optional<StanzaStream::Event> StanzaStream::next() {
  if (failed_) return std::nullopt;
  // Skip leading whitespace and XML declarations.
  std::size_t pos = 0;
  skip_ws(buffer_, pos);
  if (pos >= buffer_.size()) {
    buffer_.clear();
    return std::nullopt;
  }
  if (buffer_[pos] != '<') {
    failed_ = true;
    return std::nullopt;
  }
  // XML declaration <?xml ...?>
  if (pos + 1 < buffer_.size() && buffer_[pos + 1] == '?') {
    std::size_t end = buffer_.find("?>", pos);
    if (end == std::string::npos) return std::nullopt;
    buffer_.erase(0, end + 2);
    return next();
  }
  // Stream close: </stream:stream>
  if (pos + 1 < buffer_.size() && buffer_[pos + 1] == '/') {
    std::size_t end = buffer_.find('>', pos);
    if (end == std::string::npos) return std::nullopt;
    buffer_.erase(0, end + 1);
    in_stream_ = false;
    return Event{EventType::kStreamClose, XmlNode{}};
  }
  // Stream open: an unterminated <stream:stream ...> element.
  if (buffer_.compare(pos, 14, "<stream:stream") == 0) {
    std::size_t cursor = pos + 1;
    XmlNode node;
    auto name = parse_name(buffer_, cursor);
    if (!name.has_value()) return std::nullopt;
    node.name = *name;
    if (!parse_attrs(buffer_, cursor, node)) return std::nullopt;  // need more
    if (cursor >= buffer_.size() || buffer_[cursor] != '>') {
      if (cursor < buffer_.size()) failed_ = true;
      return std::nullopt;
    }
    buffer_.erase(0, cursor + 1);
    in_stream_ = true;
    return Event{EventType::kStreamOpen, std::move(node)};
  }
  // Regular stanza.
  std::size_t cursor = pos;
  auto node = parse_element(buffer_, cursor);
  if (!node.has_value()) {
    // Nesting past kMaxNesting (cursor set to npos) fails the stream at
    // once. Otherwise wait for more bytes: a stanza cannot be larger than
    // 64 KiB in this implementation.
    if (cursor > buffer_.size() || buffer_.size() > 64 * 1024) failed_ = true;
    return std::nullopt;
  }
  buffer_.erase(0, cursor);
  return Event{EventType::kStanza, std::move(*node)};
}

std::string make_stream_open(std::string_view to) {
  return "<stream:stream to='" + std::string(to) +
         "' xmlns='jabber:client' version='1.0'>";
}

std::string make_stream_close() { return "</stream:stream>"; }

std::string make_auth(std::string_view jid) {
  XmlNode node;
  node.name = "auth";
  node.set_attr("xmlns", "urn:ietf:params:xml:ns:xmpp-sasl");
  node.set_attr("jid", std::string(jid));
  return node.serialize();
}

std::string make_auth_success() { return "<success/>"; }

namespace {

std::string make_message(const char* type, std::string_view from,
                         std::string_view to, std::string_view body) {
  XmlNode node;
  node.name = "message";
  node.set_attr("type", type);
  if (!from.empty()) node.set_attr("from", std::string(from));
  node.set_attr("to", std::string(to));
  XmlNode body_node;
  body_node.name = "body";
  body_node.text = std::string(body);
  node.children.push_back(std::move(body_node));
  return node.serialize();
}

}  // namespace

std::string make_chat_message(std::string_view from, std::string_view to,
                              std::string_view body) {
  return make_message("chat", from, to, body);
}

std::string make_groupchat_message(std::string_view from, std::string_view to,
                                   std::string_view body) {
  return make_message("groupchat", from, to, body);
}

std::string make_presence_join(std::string_view from, std::string_view room) {
  XmlNode node;
  node.name = "presence";
  if (!from.empty()) node.set_attr("from", std::string(from));
  node.set_attr("to", std::string(room));
  return node.serialize();
}

std::string make_error(std::string_view reason) {
  XmlNode node;
  node.name = "stream:error";
  node.text = std::string(reason);
  return node.serialize();
}

}  // namespace ea::xmpp
