/**
 * @file
 * Minimal JSON value, parser, and serializer.
 *
 * The one JSON escaper (jsonEscapeString) behind the results sink
 * and the Chrome timeline, the builder perfbench reports with, and
 * the parser tests use to prove those outputs are valid JSON.  A
 * small, strict recursive-descent implementation: UTF-8
 * pass-through, \uXXXX escapes decoded to UTF-8, a hard
 * recursion-depth cap so deeply nested input cannot blow the stack,
 * and precise error messages carrying the byte offset (tests assert
 * on rejection, not just acceptance).
 *
 * Numbers are held as double (plus an exact int64 view when the
 * text was integral); object member order is preserved so dumps are
 * deterministic and tests can compare bytes.
 */

#ifndef OSCACHE_COMMON_JSON_HH
#define OSCACHE_COMMON_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace oscache
{

/** One JSON value; a tagged tree. */
class Json
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Json() = default;
    Json(std::nullptr_t) {}
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    Json(double d) : type_(Type::Number), num_(d), int_(std::int64_t(d)) {}
    Json(std::int64_t i)
        : type_(Type::Number), num_(double(i)), int_(i), integral_(true)
    {}
    Json(int i) : Json(std::int64_t(i)) {}
    Json(unsigned u) : Json(std::int64_t(u)) {}
    Json(std::uint64_t u) : Json(std::int64_t(u)) {}
    Json(const char *s) : type_(Type::String), str_(s) {}
    Json(std::string s) : type_(Type::String), str_(std::move(s)) {}

    /** An empty array / object, for building values imperatively. */
    static Json array();
    static Json object();

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** Typed accessors; defaulted, never throwing. */
    bool asBool(bool fallback = false) const;
    double asDouble(double fallback = 0.0) const;
    std::int64_t asInt(std::int64_t fallback = 0) const;
    const std::string &asString() const; // empty string fallback

    /** Array access. */
    std::size_t size() const;
    const Json &at(std::size_t index) const; // null fallback
    void push(Json value);

    /**
     * Object access.  get() returns a shared null for missing keys,
     * so chained lookups are safe; set() replaces or appends,
     * preserving first-insertion order.
     */
    const Json &get(const std::string &key) const;
    bool has(const std::string &key) const;
    void set(const std::string &key, Json value);
    const std::vector<std::pair<std::string, Json>> &members() const;

    /** Serialize (compact, deterministic member order). */
    std::string dump() const;

    /**
     * Parse @p text; returns nullopt-style result: ok() false means
     * @p error (when non-null) holds "byte N: reason".  Trailing
     * non-whitespace after the value is an error.
     */
    static bool parse(const std::string &text, Json &out,
                      std::string *error = nullptr);

  private:
    Type type_ = Type::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::int64_t int_ = 0;
    bool integral_ = false;
    std::string str_;
    std::vector<Json> arr_;
    std::vector<std::pair<std::string, Json>> obj_;
};

/** Escape @p s for embedding inside a JSON string literal. */
std::string jsonEscapeString(const std::string &s);

} // namespace oscache

#endif // OSCACHE_COMMON_JSON_HH
