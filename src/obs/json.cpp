#include "obs/json.hpp"

#include <cstdlib>

namespace xmig::obs {

namespace {

/** Recursive-descent parser building a JValue tree. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s_(text) {}

    bool
    parse(JValue *out)
    {
        skipWs();
        if (!value(out))
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool
    value(JValue *out)
    {
        if (depth_ >= 64 || pos_ >= s_.size())
            return false;
        const char c = s_[pos_];
        if (c == '{')
            return object(out);
        if (c == '[')
            return array(out);
        if (c == '"') {
            out->kind = JValue::Kind::String;
            return string(&out->string);
        }
        if (c == '-' || (c >= '0' && c <= '9'))
            return number(out);
        if (literal("true")) {
            out->kind = JValue::Kind::Bool;
            out->boolean = true;
            return true;
        }
        if (literal("false")) {
            out->kind = JValue::Kind::Bool;
            out->boolean = false;
            return true;
        }
        if (literal("null")) {
            out->kind = JValue::Kind::Null;
            return true;
        }
        return false;
    }

    bool
    object(JValue *out)
    {
        out->kind = JValue::Kind::Object;
        ++depth_;
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            --depth_;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (peek() != '"' || !string(&key))
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            JValue v;
            if (!value(&v))
                return false;
            out->object.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                --depth_;
                return true;
            }
            return false;
        }
    }

    bool
    array(JValue *out)
    {
        out->kind = JValue::Kind::Array;
        ++depth_;
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            --depth_;
            return true;
        }
        while (true) {
            skipWs();
            JValue v;
            if (!value(&v))
                return false;
            out->array.push_back(std::move(v));
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                --depth_;
                return true;
            }
            return false;
        }
    }

    bool
    string(std::string *out)
    {
        ++pos_; // opening quote
        out->clear();
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return false; // raw control byte inside a string
            if (c == '\\') {
                if (pos_ + 1 >= s_.size())
                    return false;
                const char e = s_[pos_ + 1];
                switch (e) {
                  case '"': *out += '"'; break;
                  case '\\': *out += '\\'; break;
                  case '/': *out += '/'; break;
                  case 'b': *out += '\b'; break;
                  case 'f': *out += '\f'; break;
                  case 'n': *out += '\n'; break;
                  case 'r': *out += '\r'; break;
                  case 't': *out += '\t'; break;
                  case 'u': {
                    // The emitters only \u-escape control bytes; keep
                    // the low byte and move on.
                    if (pos_ + 5 >= s_.size())
                        return false;
                    unsigned code = 0;
                    for (size_t i = pos_ + 2; i < pos_ + 6; ++i) {
                        const char h = s_[i];
                        unsigned digit;
                        if (h >= '0' && h <= '9')
                            digit = static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            digit = static_cast<unsigned>(h - 'a') + 10;
                        else if (h >= 'A' && h <= 'F')
                            digit = static_cast<unsigned>(h - 'A') + 10;
                        else
                            return false;
                        code = code * 16 + digit;
                    }
                    *out += static_cast<char>(code & 0xff);
                    pos_ += 6;
                    continue;
                  }
                  default:
                    return false;
                }
                pos_ += 2;
                continue;
            }
            *out += c;
            ++pos_;
        }
        return false; // unterminated
    }

    bool
    number(JValue *out)
    {
        // -?digits(.digits)?([eE][+-]?digits)?
        const size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        if (!digits())
            return false;
        if (peek() == '.') {
            ++pos_;
            if (!digits())
                return false;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            if (!digits())
                return false;
        }
        out->kind = JValue::Kind::Number;
        out->number = std::strtod(s_.substr(start, pos_ - start).c_str(),
                                  nullptr);
        return true;
    }

    bool
    digits()
    {
        const size_t start = pos_;
        while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9')
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        const size_t len = std::char_traits<char>::length(word);
        if (s_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    const std::string &s_;
    size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

const JValue *
JValue::get(const std::string &key) const
{
    for (const auto &[k, v] : object) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

double
JValue::numberAt(const std::string &key, double fallback) const
{
    const JValue *v = get(key);
    return v != nullptr && v->kind == Kind::Number ? v->number
                                                   : fallback;
}

std::string
JValue::stringAt(const std::string &key) const
{
    const JValue *v = get(key);
    return v != nullptr && v->kind == Kind::String ? v->string
                                                   : std::string();
}

bool
parseJson(const std::string &text, JValue *out)
{
    return JsonParser(text).parse(out);
}

} // namespace xmig::obs
