/**
 * @file
 * main() of xmig_paper and of its argv[0] aliases (see paper.hpp).
 */

#include "paper.hpp"

int
main(int argc, char **argv)
{
    return xmig::paperMain(argc, argv);
}
