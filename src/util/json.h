/**
 * @file
 * Minimal JSON reader for the repo's own machine-readable artifacts.
 *
 * Benches, metrics snapshots and flight dumps emit JSON; the tests
 * read it back (tests/obs parses a fresh flight dump and its Chrome
 * trace), which needs exactly this: a small recursive-descent parser
 * into an immutable value tree.  It is
 * a *reader for our own artifacts*, not a general JSON library — no
 * \u escapes beyond Latin-1, no streaming, whole document in memory.
 */

#ifndef REPRO_UTIL_JSON_H
#define REPRO_UTIL_JSON_H

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace repro::util {

/**
 * Escapes @p s for embedding between double quotes in a JSON string:
 * quote and backslash get their two-character escapes, control
 * characters (< 0x20) the conventional short forms or \u00XX, and
 * bytes >= 0x7F are emitted as \u00XX in the same Latin-1-as-bytes
 * convention the reader below decodes — so every byte string
 * round-trips exactly through jsonEscape -> JsonValue::parse,
 * whatever encoding the caller thought it had.
 */
std::string jsonEscape(std::string_view s);

/**
 * One parsed JSON value.  Accessors assert the kind; use is*() or
 * find() to probe first.
 */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    /**
     * Parses @p text (one complete JSON document).
     * @throws std::runtime_error with offset context on malformed
     *         input or trailing garbage.
     */
    static JsonValue parse(const std::string &text);

    /** Parses the file at @p path.  @throws std::runtime_error when
     *  the file is unreadable or malformed. */
    static JsonValue parseFile(const std::string &path);

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** @pre isBool() */
    bool asBool() const;
    /** @pre isNumber() */
    double asNumber() const;
    /** @pre isString() */
    const std::string &asString() const;
    /** @pre isArray() */
    const std::vector<JsonValue> &array() const;
    /** @pre isObject().  Keys in document order is not preserved —
     *  std::map orders them lexicographically. */
    const std::map<std::string, JsonValue> &object() const;

    /** Member @p key of an object, or nullptr when absent (or when
     *  this value is not an object). */
    const JsonValue *find(const std::string &key) const;

    JsonValue() = default;

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> array_;
    std::map<std::string, JsonValue> object_;

    friend class JsonParser;
};

} // namespace repro::util

#endif // REPRO_UTIL_JSON_H
