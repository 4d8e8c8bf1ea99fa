/**
 * @file
 * Minimal JSON reader.  spur_bench reads its committed digests
 * (spur_bench/expected.json) with it.
 *
 * Scope: full JSON syntax except \uXXXX escapes above the control range
 * (JsonWriter never emits them).  Two properties are guaranteed:
 *
 *  - Object member order is preserved, so readers see members in file
 *    order.
 *  - Numbers keep their raw source token, so a reader can take an
 *    integer exactly (AsUint64) instead of through a double.
 */
#ifndef SPUR_SWEEP_JSON_H_
#define SPUR_SWEEP_JSON_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace spur::sweep {

/** One parsed JSON value. */
class JsonValue
{
  public:
    enum class Kind : uint8_t {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject,
    };

    JsonValue() = default;

    Kind kind() const { return kind_; }
    bool IsNull() const { return kind_ == Kind::kNull; }
    bool IsBool() const { return kind_ == Kind::kBool; }
    bool IsNumber() const { return kind_ == Kind::kNumber; }
    bool IsString() const { return kind_ == Kind::kString; }
    bool IsArray() const { return kind_ == Kind::kArray; }
    bool IsObject() const { return kind_ == Kind::kObject; }

    /** Value of a kBool (false otherwise). */
    bool AsBool() const { return bool_; }

    /**
     * Numeric value via strtod; NaN for kNull (JsonWriter serializes
     * non-finite doubles as null, so null reads back as NaN).
     */
    double AsDouble() const;

    /**
     * The number as an exact unsigned integer.  Nullopt when the value
     * is not a number or its raw token is not a plain non-negative
     * decimal integer that fits uint64.
     */
    std::optional<uint64_t> AsUint64() const;

    /** Decoded string contents of a kString ("" otherwise). */
    const std::string& AsString() const { return text_; }

    /** Raw source token of a kNumber ("" otherwise). */
    const std::string& raw_number() const
    {
        return IsNumber() ? text_ : empty_string();
    }

    /** Array elements (empty for non-arrays). */
    const std::vector<JsonValue>& items() const { return items_; }

    /** Object members in source order (empty for non-objects). */
    const std::vector<std::pair<std::string, JsonValue>>& members() const
    {
        return members_;
    }

    /** First member named @p key, or nullptr. */
    const JsonValue* Find(const std::string& key) const;

    static JsonValue Null();
    static JsonValue Bool(bool value);
    static JsonValue Number(std::string raw);
    static JsonValue String(std::string text);
    static JsonValue Array(std::vector<JsonValue> items);
    static JsonValue Object(
        std::vector<std::pair<std::string, JsonValue>> members);

  private:
    static const std::string& empty_string();

    Kind kind_ = Kind::kNull;
    bool bool_ = false;
    std::string text_;  ///< String contents, or the raw number token.
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/**
 * Parses @p text as one JSON document (trailing whitespace allowed,
 * trailing garbage rejected).  On failure returns nullopt and, when
 * @p error is non-null, stores a message naming the byte offset.
 */
std::optional<JsonValue> ParseJson(const std::string& text,
                                   std::string* error);

}  // namespace spur::sweep

#endif  // SPUR_SWEEP_JSON_H_
