/**
 * @file
 * ASCII table renderer used by the benchmark harness to print the paper's
 * tables and figure series.
 */

#ifndef HSCD_COMMON_TABLE_HH
#define HSCD_COMMON_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace hscd {

class TextTable
{
  public:
    enum class Align { Left, Right };

    /** Add a column with a header and alignment for its cells. */
    TextTable &col(std::string header, Align align = Align::Right);

    /** Begin a new row; subsequent cell() calls fill it left-to-right. */
    TextTable &row();

    TextTable &cell(const std::string &text);
    TextTable &cell(const char *text);
    TextTable &cell(double v, int precision = 2);
    TextTable &cell(std::uint64_t v);
    TextTable &cell(std::int64_t v);
    TextTable &cell(int v);
    TextTable &cell(unsigned v);

    /** Insert a horizontal rule before the next row (none if none follows). */
    TextTable &rule();

    void print(std::ostream &os) const;
    std::string str() const;

  private:
    struct Row
    {
        std::vector<std::string> cells;
        bool is_rule = false;
    };

    std::vector<std::string> _headers;
    std::vector<Align> _aligns;
    std::vector<Row> _rows;
};

} // namespace hscd

#endif // HSCD_COMMON_TABLE_HH
