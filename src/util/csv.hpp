/**
 * @file
 * Minimal CSV emission: a chaos run's fault log (`faults.csv` in its
 * evidence bundle) and the serve arrival-schedule echo.
 */

#ifndef HERMES_UTIL_CSV_HPP
#define HERMES_UTIL_CSV_HPP

#include <fstream>
#include <string>
#include <vector>

namespace hermes::util {

/**
 * Row-oriented CSV writer. Quotes fields containing separators or
 * quotes per RFC 4180. Construction opens (truncates) the file; rows
 * are flushed on destruction or close().
 */
class CsvWriter
{
  public:
    /** Open `path` for writing; fatal() on failure. */
    explicit CsvWriter(const std::string &path);

    /** In-memory writer (for tests); contents via str(). */
    CsvWriter();

    ~CsvWriter();

    /** Write a header or data row from string cells. */
    void row(const std::vector<std::string> &cells);

    /** Flush and close the underlying file. */
    void close();

    /** In-memory contents (only for the buffer-backed constructor). */
    std::string str() const { return buffer_; }

  private:
    void emit(const std::string &line);
    static std::string escape(const std::string &cell);

    std::ofstream file_;
    bool toFile_;
    std::string buffer_;
};

} // namespace hermes::util

#endif // HERMES_UTIL_CSV_HPP
